//! `TileMut` — the mutable C-tile abstraction shared by the serial and
//! parallel paths.
//!
//! Every layer below the driver updates a rectangle of C: the `m × nc`
//! panel of a macro-iteration, an `mc`-block's rows of it, one register
//! tile. In column-major storage the rows of such a rectangle are
//! interleaved in memory with the rows around it, so it cannot be
//! expressed as a `&mut [f64]` sub-slice. `TileMut` holds a raw base
//! pointer plus the tile geometry and hands out one *column segment* at a
//! time as a safe `&mut [f64]`.
//!
//! Safety is established at construction: [`TileMut::from_slice`] is safe
//! (unique borrow of the whole buffer) and [`TileMut::sub_tile`] reborrows
//! its parent, so no two live tiles cover the same element — the unsafe
//! code is confined to this module and checked by its invariants. A tile
//! never crosses a thread (it is neither `Send` nor `Sync`): the pool's
//! workers build theirs over staging buffers they own ([`crate::pool`]).

use crate::scalar::Scalar;
use core::marker::PhantomData;

/// A mutable view of an `rows × cols` column-major tile with leading
/// dimension `ld`, usable as the write target of the register kernels.
pub struct TileMut<'a, T: Scalar = f64> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<'a, T: Scalar> TileMut<'a, T> {
    /// Tile covering `rows × cols` of a column-major buffer with leading
    /// dimension `ld`, starting at the buffer's first element.
    ///
    /// Panics if the buffer is too short.
    #[must_use]
    pub fn from_slice(rows: usize, cols: usize, ld: usize, data: &'a mut [T]) -> Self {
        // checked arithmetic: every pointer offset below rests on it
        crate::matrix::assert_region_fits(rows, cols, ld, data.len());
        TileMut {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Rows of the tile.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the tile.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    #[must_use]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Mutable access to rows `i0 .. i0+len` of column `j`.
    #[must_use]
    pub fn col_seg_mut(&mut self, j: usize, i0: usize, len: usize) -> &mut [T] {
        assert!(j < self.cols, "column out of bounds");
        assert!(i0 + len <= self.rows, "row segment out of bounds");
        // SAFETY: the tile exclusively borrows all elements (i, j) with
        // i < rows, j < cols at ptr[i + j*ld]; the asserts keep the
        // segment inside that region, and &mut self prevents aliasing
        // between segments obtained from the same tile.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.add(i0 + j * self.ld), len) }
    }

    /// Read element `(i, j)` (for tests and masked updates).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        // SAFETY: in-bounds per the constructor invariant and the asserts.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Sub-tile of `nrows × ncols` starting at `(i, j)`, reborrowing this
    /// tile mutably (the parent is unusable while the sub-tile lives).
    #[must_use]
    pub fn sub_tile(&mut self, i: usize, j: usize, nrows: usize, ncols: usize) -> TileMut<'_, T> {
        assert!(
            i + nrows <= self.rows && j + ncols <= self.cols,
            "sub-tile out of bounds"
        );
        TileMut {
            // SAFETY: offset stays within the borrowed region.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
#[allow(clippy::drop_non_drop)] // drops end tile borrows deliberately
mod tests {
    use super::*;

    #[test]
    fn col_segments_read_write() {
        let mut buf = vec![0.0f64; 12]; // 3x4, ld 3
        let mut t = TileMut::from_slice(3, 4, 3, &mut buf);
        t.col_seg_mut(2, 1, 2).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.get(2, 2), 6.0);
        assert_eq!(t.get(0, 2), 0.0);
        drop(t);
        assert_eq!(buf[7], 5.0);
    }

    #[test]
    fn sub_tile_offsets() {
        let mut buf: Vec<f64> = (0..20).map(|x| x as f64).collect(); // 4x5 ld 4
        let mut t = TileMut::from_slice(4, 5, 4, &mut buf);
        let mut s = t.sub_tile(1, 2, 2, 2);
        assert_eq!(s.get(0, 0), 9.0); // (1,2) of parent = 1 + 2*4
        s.col_seg_mut(1, 0, 2)[0] = -1.0; // (1,3) of parent
        drop(s);
        assert_eq!(t.get(1, 3), -1.0);
    }

    #[test]
    #[should_panic(expected = "slice too short for 2x3")]
    fn an_extent_that_overflows_is_rejected_not_wrapped() {
        // 2·ld wraps to 0 in release arithmetic; the tile would then hand
        // out column segments far outside its 16 elements
        let mut buf = vec![0.0f64; 16];
        let _ = TileMut::from_slice(2, 3, usize::MAX / 2 + 1, &mut buf);
    }

    #[test]
    #[should_panic(expected = "row segment out of bounds")]
    fn col_segment_bounds_enforced() {
        let mut buf = vec![0.0f64; 8];
        let mut t = TileMut::from_slice(4, 2, 4, &mut buf);
        let _ = t.col_seg_mut(0, 2, 3);
    }
}
