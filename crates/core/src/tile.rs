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
//! (unique borrow of the whole buffer), [`TileMut::sub_tile`] reborrows
//! its parent and `split_rows` / `split_cols` cut one tile into two, so no
//! two live tiles cover the same element — the unsafe code is confined to
//! this module and checked by its invariants. A tile is `Send`, like the
//! `&mut [T]` it stands for: the pool cuts C into disjoint tiles, each set
//! going to the thread that runs its cell ([`crate::pool`]).

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

// SAFETY: a tile is the unique borrow of its elements (the constructor
// takes a `&mut [T]`, and a split or sub-tile covers only elements of the
// tile it came from), so sending it to another thread sends that borrow,
// as sending a `&mut [T]` would.
unsafe impl<T: Scalar> Send for TileMut<'_, T> {}

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

    /// Rows `..i` and rows `i..`: two tiles that share no element, so each
    /// can go to its own thread.
    #[must_use]
    pub(crate) fn split_rows(self, i: usize) -> (Self, Self) {
        assert!(i <= self.rows, "split past the last row");
        // (wrapping: a tile of no rows never dereferences its pointer)
        let ptr = self.ptr.wrapping_add(i);
        let rows = self.rows - i;
        (TileMut { rows: i, ..self }, TileMut { ptr, rows, ..self })
    }

    /// Columns `..j` and columns `j..`: two tiles that share no element,
    /// so each can go to its own thread.
    #[must_use]
    pub(crate) fn split_cols(self, j: usize) -> (Self, Self) {
        assert!(j <= self.cols, "split past the last column");
        // (wrapping: a tile of no columns may start past the buffer)
        let ptr = self.ptr.wrapping_add(j.saturating_mul(self.ld));
        let cols = self.cols - j;
        (TileMut { cols: j, ..self }, TileMut { ptr, cols, ..self })
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

    /// Both splits of a 4×5 tile (ld 6): the halves have the sizes asked
    /// for and, written all over, cover every element of the parent once.
    #[test]
    fn splits_are_disjoint_and_sized_right() {
        for rows in [true, false] {
            let mut buf = vec![0.0f64; 6 * 5];
            let t = TileMut::from_slice(4, 5, 6, &mut buf);
            let (mut a, mut b) = if rows {
                t.split_rows(1)
            } else {
                t.split_cols(2)
            };
            let want = if rows {
                ((1, 5), (3, 5))
            } else {
                ((4, 2), (4, 3))
            };
            assert_eq!(((a.rows(), a.cols()), (b.rows(), b.cols())), want);
            for (tile, mark) in [(&mut a, 1.0), (&mut b, 2.0)] {
                for j in 0..tile.cols() {
                    for x in tile.col_seg_mut(j, 0, tile.rows()) {
                        *x += mark;
                    }
                }
            }
            drop((a, b));
            for j in 0..5 {
                for i in 0..4 {
                    let top = if rows { i < 1 } else { j < 2 };
                    assert_eq!(buf[i + 6 * j], if top { 1.0 } else { 2.0 });
                }
                // the rows between columns are not the tile's
                assert!(buf[6 * j + 4..6 * j + 6].iter().all(|&x| x == 0.0));
            }
        }
        // a split at either end leaves one side empty
        let mut buf = vec![0.0f64; 12];
        let (none, all) = TileMut::from_slice(3, 4, 3, &mut buf).split_cols(0);
        assert_eq!((none.cols(), all.cols()), (0, 4));
        let (all, none) = all.split_rows(3);
        assert_eq!((all.rows(), none.rows()), (3, 0));
    }

    #[test]
    #[should_panic(expected = "split past the last row")]
    fn a_row_split_out_of_range_panics() {
        let mut buf = vec![0.0f64; 8];
        let _ = TileMut::from_slice(4, 2, 4, &mut buf).split_rows(5);
    }

    #[test]
    #[should_panic(expected = "split past the last column")]
    fn a_column_split_out_of_range_panics() {
        let mut buf = vec![0.0f64; 8];
        let _ = TileMut::from_slice(4, 2, 4, &mut buf).split_cols(3);
    }

    /// The halves of one buffer, written by two threads at once.
    #[test]
    fn two_threads_write_the_halves_of_one_buffer() {
        let (rows, cols) = (64, 48);
        let mut buf = vec![0.0f64; rows * cols];
        let (top, bottom) = TileMut::from_slice(rows, cols, rows, &mut buf).split_rows(24);
        let (left, right) = bottom.split_cols(20);
        let fill = |mut tile: TileMut<'_>, value: f64| {
            for _ in 0..50 {
                for j in 0..tile.cols() {
                    let rows = tile.rows();
                    tile.col_seg_mut(j, 0, rows).fill(value);
                }
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(move || fill(top, 1.0));
            scope.spawn(move || fill(left, 2.0));
            fill(right, 3.0);
        });
        for j in 0..cols {
            for i in 0..rows {
                let want = match (i < 24, j < 20) {
                    (true, _) => 1.0,
                    (false, true) => 2.0,
                    (false, false) => 3.0,
                };
                assert_eq!(buf[i + rows * j], want, "({i}, {j})");
            }
        }
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
