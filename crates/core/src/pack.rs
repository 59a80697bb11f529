//! Packing (Figure 3): rearranging blocks of A and panels of B into the
//! contiguous sliver layouts the register kernel streams through.
//!
//! - **A** (an `mc×kc` block of `op(A)`) is packed into `⌈mc/mr⌉` slivers
//!   of `mr` rows; within a sliver the `mr` elements of each of the `kc`
//!   columns are contiguous. Ragged bottom slivers are zero-padded to
//!   `mr`, so the register kernel never needs an M-edge case.
//! - **B** (a `kc×nc` panel of `op(B)`) is packed into `⌈nc/nr⌉` slivers
//!   of `nr` columns; within a sliver the `nr` elements of each of the
//!   `kc` rows are contiguous, zero-padded to `nr`.
//!
//! Transposition is folded into packing (reading `op(X)` element-wise
//! costs the same strided traversal either way), so the compute layers
//! never see transpose flags. What they do see, when a B panel is not
//! packed at all ([`crate::gebp::BWindow`]), is the pair of strides a
//! transpose flag turns into.

#![forbid(unsafe_code)]

use crate::matrix::MatrixView;
use crate::scalar::Scalar;
use crate::{GemmError, Transpose};
use core::ops::Range;

/// The fallible half of `try_pack`: one `faults::fail_alloc()` draw per
/// call, then capacity for `needed` elements. The contents are kept (the
/// pack that follows overwrites them; zero-filling 2 MiB per skinny call
/// first cost more than the pack's own writes) unless this fails, which
/// leaves the buffer empty.
fn try_grow<T: Scalar>(
    buf: &mut Vec<T>,
    needed: usize,
    what: &'static str,
) -> Result<(), GemmError> {
    let additional = needed.saturating_sub(buf.len());
    if crate::faults::fail_alloc() || buf.try_reserve(additional).is_err() {
        buf.clear();
        return Err(GemmError::AllocFailure { what });
    }
    Ok(())
}

/// Positions `c0..c0 + N` of every `width`-long row of a sliver from the
/// `N` sources `src(c0..c0 + N)`, each as long as the sliver has rows, the
/// sliver's row outermost: the sources are read as `N` concurrent
/// streams and the sliver is written in order.
fn interleave<'a, T: Scalar, const N: usize>(
    sliver: &mut [T],
    width: usize,
    c0: usize,
    src: impl Fn(usize) -> &'a [T],
) {
    let srcs: [&[T]; N] = core::array::from_fn(|c| src(c0 + c));
    for (k, row) in sliver.chunks_exact_mut(width).enumerate() {
        for (dst, src) in row[c0..c0 + N].iter_mut().zip(&srcs) {
            *dst = src[k];
        }
    }
}

/// Most sources [`interleave`] is instantiated for; wider slivers take
/// several passes of this many streams.
const MAX_STREAMS: usize = 8;

/// Positions `cols` of every `width`-long row of a sliver from the
/// sources `src(cols)`: a B sliver's `nr`-rows from columns of B, or an A
/// sliver's `mr`-columns from columns of a transposed A.
fn interleave_all<'a, T: Scalar>(
    sliver: &mut [T],
    width: usize,
    cols: Range<usize>,
    src: impl Fn(usize) -> &'a [T] + Copy,
) {
    for c0 in cols.clone().step_by(MAX_STREAMS) {
        match (cols.end - c0).min(MAX_STREAMS) {
            1 => interleave::<T, 1>(sliver, width, c0, src),
            2 => interleave::<T, 2>(sliver, width, c0, src),
            3 => interleave::<T, 3>(sliver, width, c0, src),
            4 => interleave::<T, 4>(sliver, width, c0, src),
            5 => interleave::<T, 5>(sliver, width, c0, src),
            6 => interleave::<T, 6>(sliver, width, c0, src),
            7 => interleave::<T, 7>(sliver, width, c0, src),
            _ => interleave::<T, 8>(sliver, width, c0, src),
        }
    }
}

/// Rows `i0..i0 + rows` of a non-transposed A, columns `k0..k0 + kc`,
/// into packed rows `at..at + rows` of an `mr`-sliver block, the source
/// column outermost: each column's rows are read once, front to back, and
/// dealt out to the slivers' `k`-th rows — the first few finishing a
/// sliver an earlier run of rows began. Sliver-outermost, every
/// `mr`-element copy would start on a new page of A and each page be
/// revisited once per sliver — half the rate. `MR` is `mr` as a constant,
/// or 0 for "use `mr`".
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn deal<T: Scalar, const MR: usize>(
    buf: &mut [T],
    a: &MatrixView<'_, T>,
    mr: usize,
    at: usize,
    i0: usize,
    k0: usize,
    rows: usize,
    kc: usize,
) {
    let mr = if MR == 0 { mr } else { MR };
    let head = ((mr - at % mr) % mr).min(rows);
    let s0 = (at + head) / mr;
    for k in 0..kc {
        let (head_rows, src) = a.col(k0 + k)[i0..i0 + rows].split_at(head);
        if head > 0 {
            let to = ((at / mr) * kc + k) * mr + at % mr;
            buf[to..to + head].copy_from_slice(head_rows);
        }
        for (s, part) in src.chunks(mr).enumerate() {
            let to = ((s0 + s) * kc + k) * mr;
            if part.len() == mr {
                buf[to..to + mr].copy_from_slice(part);
            } else {
                buf[to..to + part.len()].copy_from_slice(part);
            }
        }
    }
}

/// Zero the padding rows of a ragged last sliver of an `mc×kc` block.
fn pad_last_sliver<T: Scalar>(buf: &mut [T], mr: usize, mc: usize, kc: usize) {
    let rows = mc % mr;
    if rows == 0 {
        return;
    }
    for row in buf[(mc / mr) * mr * kc..].chunks_exact_mut(mr) {
        row[rows..].fill(T::ZERO);
    }
}

/// The cache-line size packed A starts on: a register kernel loads each
/// `k` step of a sliver as whole vectors, and one that straddles two
/// lines costs two loads. The allocator promises only `T`'s alignment.
const LINE: usize = 64;

/// A packed `mc×kc` block of A in `mr`-sliver layout.
#[derive(Clone, Debug)]
pub struct PackedA<T: Scalar = f64> {
    /// The slivers start at `buf[off]`, the first element on a
    /// [`LINE`] boundary.
    buf: Vec<T>,
    off: usize,
    mc: usize,
    kc: usize,
    mr: usize,
}

impl<T: Scalar> PackedA<T> {
    /// Empty buffer to be filled by [`PackedA::pack`]; reusable across
    /// blocks (no reallocation once grown).
    #[must_use]
    pub fn new(mr: usize) -> Self {
        PackedA {
            buf: Vec::new(),
            off: 0,
            mc: 0,
            kc: 0,
            mr,
        }
    }

    /// Pack rows `i0..i0+mc`, columns `k0..k0+kc` of `op(a)`.
    pub fn pack(
        &mut self,
        a: &MatrixView<'_, T>,
        trans: Transpose,
        i0: usize,
        k0: usize,
        mc: usize,
        kc: usize,
    ) {
        self.pack_runs(core::iter::once((a, i0, mc)), trans, k0, kc);
    }

    /// Pack columns `k0..k0+kc` of runs of rows, one under the other, as
    /// one block: each `(a, i0, rows)` is rows `i0..i0+rows` of `op(a)`.
    /// A sliver may hold the last rows of one run and the first of the
    /// next — a block of a batch's rows stacked, which straddles entries.
    pub(crate) fn pack_runs<'v, 'a: 'v>(
        &mut self,
        runs: impl Iterator<Item = (&'v MatrixView<'a, T>, usize, usize)> + Clone,
        trans: Transpose,
        k0: usize,
        kc: usize,
    ) {
        // Single telemetry site for A: `try_pack` and every degraded
        // chunk path land here. Bytes are the padded sliver buffer —
        // exactly what the kernels stream.
        let _span = crate::telemetry::span(crate::telemetry::TraceKind::PackA);
        let mr = self.mr;
        let mc = runs.clone().map(|(_, _, rows)| rows).sum();
        self.mc = mc;
        self.kc = kc;
        let len = mc.div_ceil(mr) * mr * kc;
        // every element below is written, padding included, so only a
        // length change touches the buffer here
        let total = len + LINE / size_of::<T>();
        self.buf.reserve(total.saturating_sub(self.buf.len()));
        self.off = (self.buf.as_ptr() as usize).wrapping_neg() % LINE / size_of::<T>();
        self.buf.resize(self.off + len, T::ZERO);
        crate::telemetry::add_packed_a_bytes((len * size_of::<T>()) as u64);
        if kc == 0 {
            return;
        }
        let buf = &mut self.buf[self.off..];
        let mut at = 0;
        for (a, i0, rows) in runs {
            match trans {
                // op(A)(i, k) = A(i, k). The sliver heights in use get a
                // copy of compile-time length (a run-time one costs a
                // `memcpy` call per 64 bytes); any other height takes the
                // same loop.
                Transpose::No => match mr {
                    4 => deal::<T, 4>(buf, a, mr, at, i0, k0, rows, kc),
                    8 => deal::<T, 8>(buf, a, mr, at, i0, k0, rows, kc),
                    12 => deal::<T, 12>(buf, a, mr, at, i0, k0, rows, kc),
                    _ => deal::<T, 0>(buf, a, mr, at, i0, k0, rows, kc),
                },
                Transpose::Yes => {
                    for s in at / mr..(at + rows).div_ceil(mr) {
                        let sliver = &mut buf[s * mr * kc..(s + 1) * mr * kc];
                        let (lo, hi) = (at.max(s * mr), (at + rows).min(s * mr + mr));
                        // op(A)(i, k) = A(k, i): the sliver's rows are
                        // columns of A, read as concurrent streams
                        let src = |r: usize| &a.col(i0 + s * mr + r - at)[k0..k0 + kc];
                        interleave_all(sliver, mr, lo - s * mr..hi - s * mr, src);
                    }
                }
            }
            at += rows;
        }
        pad_last_sliver(buf, mr, mc, kc);
    }

    /// Fallible sibling of [`PackedA::pack`]: grows the buffer with
    /// `try_reserve` and reports [`GemmError::AllocFailure`] instead of
    /// aborting the process when memory is exhausted. On error the
    /// buffer is left empty (the allocation, if any, is retained).
    pub fn try_pack(
        &mut self,
        a: &MatrixView<'_, T>,
        trans: Transpose,
        i0: usize,
        k0: usize,
        mc: usize,
        kc: usize,
    ) -> Result<(), GemmError> {
        self.try_pack_runs(core::iter::once((a, i0, mc)), trans, k0, kc)
    }

    /// Fallible sibling of [`PackedA::pack_runs`], as [`PackedA::try_pack`].
    pub(crate) fn try_pack_runs<'v, 'a: 'v>(
        &mut self,
        runs: impl Iterator<Item = (&'v MatrixView<'a, T>, usize, usize)> + Clone,
        trans: Transpose,
        k0: usize,
        kc: usize,
    ) -> Result<(), GemmError> {
        let mc: usize = runs.clone().map(|(_, _, rows)| rows).sum();
        let needed = mc.div_ceil(self.mr) * self.mr * kc + LINE / size_of::<T>();
        try_grow(&mut self.buf, needed, "packed A")?;
        // capacity is in hand: the resize inside `pack_runs` cannot allocate
        self.pack_runs(runs, trans, k0, kc);
        Ok(())
    }

    /// Re-aim a recycled buffer at a (possibly different) kernel's
    /// sliver height, keeping the allocation. The buffer is empty until
    /// the next [`PackedA::pack`].
    pub fn retarget(&mut self, mr: usize) {
        self.mr = mr;
        self.mc = 0;
        self.kc = 0;
        self.off = 0;
        self.buf.clear();
    }

    /// The sliver-major packed buffer.
    #[must_use]
    pub fn buf(&self) -> &[T] {
        // empty, not out of range, after a failed `try_pack`
        self.buf.get(self.off..).unwrap_or_default()
    }

    /// One `mr×kc` sliver.
    #[must_use]
    pub fn sliver(&self, s: usize) -> &[T] {
        &self.buf()[s * self.mr * self.kc..(s + 1) * self.mr * self.kc]
    }

    /// `n` adjacent slivers starting at sliver `s`: they sit back to
    /// back, which is what lets a register kernel take a row group of
    /// them as one taller tile ([`crate::microkernel::KernelSet::run_group`]).
    #[must_use]
    pub fn sliver_group(&self, s: usize, n: usize) -> &[T] {
        &self.buf()[s * self.mr * self.kc..(s + n) * self.mr * self.kc]
    }

    /// Number of slivers (`⌈mc/mr⌉`).
    #[must_use]
    pub fn slivers(&self) -> usize {
        self.mc.div_ceil(self.mr)
    }

    /// Unpadded rows currently packed.
    #[must_use]
    pub fn mc(&self) -> usize {
        self.mc
    }

    /// Depth currently packed.
    #[must_use]
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// Sliver height.
    #[must_use]
    pub fn mr(&self) -> usize {
        self.mr
    }
}

/// A packed `kc×nc` panel of B in `nr`-sliver layout.
#[derive(Clone, Debug)]
pub struct PackedB<T: Scalar = f64> {
    buf: Vec<T>,
    kc: usize,
    nc: usize,
    nr: usize,
}

impl<T: Scalar> PackedB<T> {
    /// Empty buffer to be filled by [`PackedB::pack`].
    #[must_use]
    pub fn new(nr: usize) -> Self {
        PackedB {
            buf: Vec::new(),
            kc: 0,
            nc: 0,
            nr,
        }
    }

    /// Pack rows `k0..k0+kc`, columns `j0..j0+nc` of `op(b)`.
    ///
    /// This is the single choke point through which *every* B element
    /// enters packed form — `try_pack` and the pre-packed tiles of
    /// [`crate::prepack::PrepackedB`] funnel here — so the PackB
    /// telemetry span and `packed_b_bytes` counter below account for all
    /// packing work in the process. A pack-cache hit re-uses tiles built
    /// here earlier and therefore records *zero* additional B bytes,
    /// which is exactly how the telemetry exposes the cache's savings.
    pub fn pack(
        &mut self,
        b: &MatrixView<'_, T>,
        trans: Transpose,
        k0: usize,
        j0: usize,
        kc: usize,
        nc: usize,
    ) {
        let _span = crate::telemetry::span(crate::telemetry::TraceKind::PackB);
        let nr = self.nr;
        self.kc = kc;
        self.nc = nc;
        let slivers = nc.div_ceil(nr);
        // every element below is written, padding included, so only a
        // length change touches the buffer here
        self.buf.resize(slivers * nr * kc, T::ZERO);
        crate::telemetry::add_packed_b_bytes((self.buf.len() * core::mem::size_of::<T>()) as u64);
        if kc == 0 || slivers == 0 {
            return;
        }

        let pack_one = |s: usize, sliver: &mut [T]| {
            let col_base = s * nr;
            let cols = nr.min(nc - col_base);
            match trans {
                Transpose::No => {
                    // op(B)(k, j) = B(k, j): row-of-sliver gather, the
                    // source columns read as concurrent streams
                    let src = |c: usize| &b.col(j0 + col_base + c)[k0..k0 + kc];
                    interleave_all(sliver, nr, 0..cols, src);
                }
                Transpose::Yes => {
                    // op(B)(k, j) = B(j, k): columns of B become rows
                    for k in 0..kc {
                        let src = b.col(k0 + k);
                        let dst = &mut sliver[k * nr..k * nr + cols];
                        dst.copy_from_slice(&src[j0 + col_base..j0 + col_base + cols]);
                    }
                }
            }
            // the ragged sliver's padding columns
            if cols < nr {
                for row in sliver.chunks_exact_mut(nr) {
                    row[cols..].fill(T::ZERO);
                }
            }
        };
        // slivers are disjoint regions of the buffer, each packed on its own
        for (s, sliver) in self.buf.chunks_mut(nr * kc).enumerate() {
            pack_one(s, sliver);
        }
    }

    /// Fallible sibling of [`PackedB::pack`]: grows the buffer with
    /// `try_reserve` and reports [`GemmError::AllocFailure`] instead of
    /// aborting the process when memory is exhausted. On error the
    /// buffer is left empty (the allocation, if any, is retained).
    pub fn try_pack(
        &mut self,
        b: &MatrixView<'_, T>,
        trans: Transpose,
        k0: usize,
        j0: usize,
        kc: usize,
        nc: usize,
    ) -> Result<(), GemmError> {
        let needed = nc.div_ceil(self.nr) * self.nr * kc;
        try_grow(&mut self.buf, needed, "packed B")?;
        self.pack(b, trans, k0, j0, kc, nc);
        Ok(())
    }

    /// Adopt an already-laid-out sliver buffer — the *construction-free*
    /// constructor that makes a panel loaded from the on-disk weight
    /// store (DESIGN.md §17) interchangeable with a live pack. The
    /// buffer must be in exactly the layout [`PackedB::pack`] produces
    /// for a `kc×nc` panel at sliver width `nr`: `⌈nc/nr⌉` slivers of
    /// `nr*kc` elements, ragged edge zero-padded. Only the length is
    /// checkable here; content validity is the store's checksum's job.
    ///
    /// Deliberately does **not** record `packed_b_bytes` telemetry: no
    /// element was gathered from a source matrix, which is precisely
    /// the zero-pack-cost property the warm-start bench asserts.
    pub fn from_layout(nr: usize, kc: usize, nc: usize, buf: Vec<T>) -> Result<Self, GemmError> {
        if nr == 0 {
            return Err(GemmError::BadStore("panel sliver width nr is zero"));
        }
        if buf.len() != nc.div_ceil(nr) * nr * kc {
            return Err(GemmError::BadStore(
                "panel buffer length mismatches geometry",
            ));
        }
        Ok(PackedB { buf, kc, nc, nr })
    }

    /// Re-aim a recycled buffer at a (possibly different) kernel's
    /// sliver width, keeping the allocation. The buffer is empty until
    /// the next [`PackedB::pack`].
    pub fn retarget(&mut self, nr: usize) {
        self.nr = nr;
        self.kc = 0;
        self.nc = 0;
        self.buf.clear();
    }

    /// The sliver-major packed buffer.
    #[must_use]
    pub fn buf(&self) -> &[T] {
        &self.buf
    }

    /// One `kc×nr` sliver.
    #[must_use]
    pub fn sliver(&self, s: usize) -> &[T] {
        &self.buf[s * self.nr * self.kc..(s + 1) * self.nr * self.kc]
    }

    /// Number of slivers (`⌈nc/nr⌉`).
    #[must_use]
    pub fn slivers(&self) -> usize {
        self.nc.div_ceil(self.nr)
    }

    /// Depth currently packed.
    #[must_use]
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// Unpadded columns currently packed.
    #[must_use]
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Sliver width.
    #[must_use]
    pub fn nr(&self) -> usize {
        self.nr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn pack_a_exact_multiple() {
        // 4x3 block, mr = 2 -> 2 slivers of 2x3
        let a = Matrix::from_fn(4, 3, |i, k| (i * 10 + k) as f64);
        let mut p = PackedA::new(2);
        p.pack(&a.view(), Transpose::No, 0, 0, 4, 3);
        assert_eq!(p.slivers(), 2);
        // sliver 0: columns of rows 0-1: [00,10, 01,11, 02,12]
        assert_eq!(p.sliver(0), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        // sliver 1: rows 2-3
        assert_eq!(p.sliver(1), &[20.0, 30.0, 21.0, 31.0, 22.0, 32.0]);
    }

    #[test]
    fn pack_a_ragged_padded_with_zeros() {
        let a = Matrix::from_fn(3, 2, |i, k| (i + 1) as f64 * (k + 1) as f64);
        let mut p = PackedA::new(2);
        p.pack(&a.view(), Transpose::No, 0, 0, 3, 2);
        assert_eq!(p.slivers(), 2);
        // last sliver has row 2 then a zero pad
        assert_eq!(p.sliver(1), &[3.0, 0.0, 6.0, 0.0]);
    }

    /// The order `PackedA::pack` walked a non-transposed A in before it
    /// went column-outermost: the layout's definition, sliver by sliver.
    fn pack_a_sliver_outermost(
        a: &MatrixView<'_>,
        mr: usize,
        (i0, k0, mc, kc): (usize, usize, usize, usize),
    ) -> Vec<f64> {
        // stale contents, so unwritten padding would show
        let mut buf = vec![f64::NAN; mc.div_ceil(mr) * mr * kc];
        for (s, sliver) in buf.chunks_mut(mr * kc).enumerate() {
            let rows = mr.min(mc - s * mr);
            for k in 0..kc {
                let src = &a.col(k0 + k)[i0 + s * mr..i0 + s * mr + rows];
                sliver[k * mr..k * mr + rows].copy_from_slice(src);
                sliver[k * mr + rows..(k + 1) * mr].fill(0.0);
            }
        }
        buf
    }

    #[test]
    fn pack_a_column_outermost_is_byte_identical_to_sliver_outermost() {
        // a window of a taller parent (lda > mc), blocks off its origin
        let parent: Matrix = Matrix::random(70, 40, 17);
        let a = parent.view().sub(3, 2, 61, 37);
        assert!(a.ld() > a.rows());
        for mr in [8, 4, 5, 12] {
            let mut p = PackedA::new(mr);
            // exact, ragged last sliver, one short sliver, a single row
            for mc in [56, 53, 9, mr - 1, 1] {
                for (i0, k0, kc) in [(0, 0, 37), (5, 3, 20), (61 - mc, 36, 1)] {
                    // over whatever the last pack left behind
                    p.pack(&a, Transpose::No, i0, k0, mc, kc);
                    let want = pack_a_sliver_outermost(&a, mr, (i0, k0, mc, kc));
                    let same = p
                        .buf()
                        .iter()
                        .zip(&want)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same && p.buf().len() == want.len(),
                        "mr={mr} mc={mc} i0={i0} k0={k0} kc={kc}"
                    );
                }
            }
        }
    }

    #[test]
    fn runs_of_rows_pack_as_the_rows_stacked() {
        // rows of three matrices run into one block, packed over whatever
        // the last pack left behind: byte for byte the block of the same
        // rows stacked in one matrix, whichever way each is stored
        let ops: Vec<Matrix> = (0..3).map(|i| Matrix::random(20, 11, 30 + i)).collect();
        let stored: Vec<Matrix> = ops.iter().map(Matrix::transposed).collect();
        for mr in [8, 4, 5] {
            let mut p = PackedA::new(mr);
            // a run finishing a sliver, a sliver holding three runs, ragged
            for rows in [[5, 13, 9], [1, 2, 3], [8, 8, 3]] {
                let mc: usize = rows.iter().sum();
                let stacked = Matrix::from_fn(mc, 11, |r, k| {
                    let (mut i, mut r) = (0, r);
                    while r >= rows[i] {
                        r -= rows[i];
                        i += 1;
                    }
                    ops[i].get(2 + r, k)
                });
                let mut want = PackedA::new(mr);
                want.pack(&stacked.view(), Transpose::No, 0, 3, mc, 7);
                for (trans, mats) in [(Transpose::No, &ops), (Transpose::Yes, &stored)] {
                    let views: Vec<MatrixView<'_>> = mats.iter().map(Matrix::view).collect();
                    p.pack_runs(views.iter().zip(rows).map(|(v, n)| (v, 2, n)), trans, 3, 7);
                    let case = format!("mr {mr} rows {rows:?} {trans:?}");
                    assert_eq!((p.mc(), p.buf()), (mc, want.buf()), "{case}");
                }
            }
        }
    }

    #[test]
    fn pack_a_transposed_equals_pack_of_transpose() {
        let a: Matrix = Matrix::random(7, 9, 1);
        let at = a.transposed();
        let mut p1 = PackedA::new(4);
        let mut p2 = PackedA::new(4);
        // op(A) = A^T is 9x7; take block rows 2..8, cols 1..6
        p1.pack(&a.view(), Transpose::Yes, 2, 1, 6, 5);
        p2.pack(&at.view(), Transpose::No, 2, 1, 6, 5);
        assert_eq!(p1.buf(), p2.buf());
    }

    #[test]
    fn pack_b_exact_multiple() {
        // 3x4 panel, nr = 2 -> 2 slivers of 3x2
        let b = Matrix::from_fn(3, 4, |k, j| (k * 10 + j) as f64);
        let mut p = PackedB::new(2);
        p.pack(&b.view(), Transpose::No, 0, 0, 3, 4);
        assert_eq!(p.slivers(), 2);
        // sliver 0: rows of cols 0-1: [00,01, 10,11, 20,21]
        assert_eq!(p.sliver(0), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        assert_eq!(p.sliver(1), &[2.0, 3.0, 12.0, 13.0, 22.0, 23.0]);
    }

    #[test]
    fn pack_b_ragged_padded_with_zeros() {
        let b = Matrix::from_fn(2, 3, |k, j| (k * 10 + j + 1) as f64);
        let mut p = PackedB::new(2);
        p.pack(&b.view(), Transpose::No, 0, 0, 2, 3);
        // second sliver holds only column 2, padded
        assert_eq!(p.sliver(1), &[3.0, 0.0, 13.0, 0.0]);
    }

    #[test]
    fn pack_b_transposed_equals_pack_of_transpose() {
        let b: Matrix = Matrix::random(9, 7, 2);
        let bt = b.transposed();
        let mut p1 = PackedB::new(6);
        let mut p2 = PackedB::new(6);
        // op(B) = B^T is 7x9
        p1.pack(&b.view(), Transpose::Yes, 1, 2, 5, 7);
        p2.pack(&bt.view(), Transpose::No, 1, 2, 5, 7);
        assert_eq!(p1.buf(), p2.buf());
    }

    #[test]
    fn pack_offsets_select_the_right_block() {
        let a = Matrix::from_fn(10, 10, |i, k| (i * 100 + k) as f64);
        let mut p = PackedA::new(3);
        p.pack(&a.view(), Transpose::No, 4, 7, 3, 2);
        // single sliver: rows 4-6 of columns 7-8
        assert_eq!(p.sliver(0), &[407.0, 507.0, 607.0, 408.0, 508.0, 608.0]);
    }

    #[test]
    fn buffers_reusable_across_packs() {
        let a: Matrix = Matrix::random(64, 64, 3);
        let mut p = PackedA::new(8);
        p.pack(&a.view(), Transpose::No, 0, 0, 64, 64);
        let first = p.buf().to_vec();
        p.pack(&a.view(), Transpose::No, 0, 0, 32, 16);
        assert_eq!(p.buf().len(), 32 * 16);
        p.pack(&a.view(), Transpose::No, 0, 0, 64, 64);
        assert_eq!(p.buf(), &first[..]);
    }

    #[test]
    fn repacking_over_stale_contents_rewrites_the_padding() {
        // A pack of unchanged padded length touches no element it does
        // not write, so the ragged sliver's padding must be written, not
        // inherited: fill the buffer with a full pack, then pack a ragged
        // shape of the same padded length over it.
        let m: Matrix = Matrix::from_fn(20, 20, |i, j| 1.0 + (i * 20 + j) as f64);
        for trans in [Transpose::No, Transpose::Yes] {
            let mut b = PackedB::new(6);
            b.pack(&m.view(), trans, 1, 2, 5, 12);
            b.pack(&m.view(), trans, 1, 2, 5, 8); // 2 slivers, 4 padding columns
            let mut fresh = PackedB::new(6);
            fresh.pack(&m.view(), trans, 1, 2, 5, 8);
            assert_eq!(b.buf(), fresh.buf(), "B {trans:?}");
            assert_eq!(b.sliver(1)[2..6], [0.0; 4]);

            let mut a = PackedA::new(8);
            a.pack(&m.view(), trans, 2, 1, 16, 5);
            a.pack(&m.view(), trans, 2, 1, 11, 5); // 2 slivers, 5 padding rows
            let mut fresh = PackedA::new(8);
            fresh.pack(&m.view(), trans, 2, 1, 11, 5);
            assert_eq!(a.buf(), fresh.buf(), "A {trans:?}");
            assert_eq!(a.sliver(1)[3..8], [0.0; 5]);
        }
    }

    #[test]
    fn wide_slivers_interleave_in_several_passes() {
        // nr above MAX_STREAMS: two passes over the sliver, then padding
        let b = Matrix::from_fn(3, 20, |k, j| (k * 100 + j) as f64);
        let mut p = PackedB::new(11);
        p.pack(&b.view(), Transpose::No, 0, 0, 3, 20);
        for k in 0..3 {
            for j in 0..22 {
                let want = if j < 20 { (k * 100 + j) as f64 } else { 0.0 };
                assert_eq!(p.sliver(j / 11)[k * 11 + j % 11], want, "({k}, {j})");
            }
        }
        // a transposed A takes the same path: mr = 12 source columns in
        // two passes, then a ragged second sliver of 8 rows and 4 of padding
        let a: Matrix = Matrix::random(7, 20, 4);
        let (mut p1, mut p2) = (PackedA::new(12), PackedA::new(12));
        p1.pack(&a.view(), Transpose::Yes, 0, 1, 20, 5);
        p2.pack(&a.transposed().view(), Transpose::No, 0, 1, 20, 5);
        assert_eq!(p1.buf(), p2.buf());
    }

    #[test]
    fn try_pack_keeps_its_contract_without_the_prefill() {
        let m: Matrix = Matrix::random(16, 16, 9);
        let (mut a, mut b) = (PackedA::new(8), PackedB::new(6));
        a.try_pack(&m.view(), Transpose::No, 0, 0, 16, 16).unwrap();
        b.try_pack(&m.view(), Transpose::No, 0, 0, 16, 16).unwrap();
        let (mut fa, mut fb) = (PackedA::new(8), PackedB::new(6));
        fa.pack(&m.view(), Transpose::No, 0, 0, 11, 7);
        fb.pack(&m.view(), Transpose::No, 0, 0, 7, 11);
        // smaller, ragged, over the old contents: as a fresh pack
        a.try_pack(&m.view(), Transpose::No, 0, 0, 11, 7).unwrap();
        b.try_pack(&m.view(), Transpose::No, 0, 0, 7, 11).unwrap();
        assert_eq!((a.buf(), b.buf()), (fa.buf(), fb.buf()));
        // A's slivers start on a cache line, whatever the allocator returned
        assert!([&a, &fa]
            .iter()
            .all(|p| (p.buf().as_ptr() as usize).is_multiple_of(LINE)));
        // an impossible request leaves the buffer empty, not stale
        let huge = usize::MAX / 16;
        assert!(try_grow(&mut a.buf, huge, "packed A").is_err());
        assert!(a.buf().is_empty());
    }

    #[test]
    fn zero_sized_packs() {
        let a: Matrix = Matrix::zeros(4, 4);
        let mut p = PackedA::new(4);
        p.pack(&a.view(), Transpose::No, 0, 0, 0, 4);
        assert_eq!(p.slivers(), 0);
        for trans in [Transpose::No, Transpose::Yes] {
            p.pack(&a.view(), trans, 0, 0, 4, 0);
            assert_eq!((p.slivers(), p.buf().len()), (1, 0));
        }
        let mut q = PackedB::new(4);
        q.pack(&a.view(), Transpose::No, 0, 0, 4, 0);
        assert_eq!(q.slivers(), 0);
    }
}
