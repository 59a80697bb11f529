//! Pre-packed B operands and the process-wide pack cache.
//!
//! The paper's γ = F/W argument treats packing as overhead amortized
//! over *one* multiplication; inference-style workloads multiply many
//! activations against the **same** weight matrix, so the packed-B W
//! term can be amortized over the whole stream instead. This module
//! provides the two pieces:
//!
//! - [`PrepackedB`]: an immutable, `Arc`-shared set of `kc×nc` panel
//!   tiles laid out exactly as [`PackedB::pack`] would produce
//!   them inside one GEMM call, built once per weight matrix.
//! - [`PackCache`]: a bounded LRU cache of [`PrepackedB`] sets keyed by
//!   the operand's identity (data pointer, dimensions, leading
//!   dimension, transposition) and the packing geometry (`nr`, `kc`,
//!   `nc`). [`crate::gemm::gemm`] / [`crate::gemm::try_gemm`] /
//!   [`crate::batch::gemm_batch_shared_b`] consult it transparently
//!   when [`crate::gemm::GemmConfig::with_pack_cache`] is enabled.
//!
//! A caller that knows which weight it reuses holds the [`PrepackedB`]
//! itself and passes it to [`crate::batch::gemm_batch_prepacked`]; the
//! serving layer keeps one per tenant weight that way
//! ([`crate::service`]), and needs neither cache nor coherence contract.
//!
//! ## Coherence contract
//!
//! The cache keys on the operand's *identity*, not its contents — a
//! lookup never re-reads the matrix (that would cost the traffic the
//! cache exists to save). Two rules follow:
//!
//! 1. After mutating a cached B in place, call [`PackCache::invalidate`]
//!    before the next cached GEMM, or it will be served stale panels by
//!    design.
//! 2. Invalidate before freeing a cached B. The allocator may hand the
//!    same address to a new matrix of the same shape, which would then
//!    falsely hit the dead entry.
//!
//! Eviction and invalidation are always safe *during* a GEMM: every
//! call clones the `Arc` up front, so in-flight panels stay alive until
//! the call returns.

#![forbid(unsafe_code)]

use crate::matrix::MatrixView;
use crate::pack::PackedB;
use crate::scalar::Scalar;
use crate::{GemmError, Transpose};
use std::sync::{Arc, Mutex, PoisonError};

/// Default [`PackCache`] capacity: 256 MiB of packed panels per element
/// type. Bound a cache of your own with [`PackCache::with_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 256 * 1024 * 1024;

/// The *layout* half of a pre-packed operand, split from panel
/// *construction* so a blob loaded from the on-disk store
/// ([`crate::store`]) and a live pack describe their tiles through one
/// vocabulary. Everything about the tile grid — tile count, walk
/// order, per-tile effective dimensions, padded element counts — is a
/// pure function of these six numbers; no panel data is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanelGeometry {
    /// Rows of `op(B)` (the inner GEMM dimension).
    pub k: usize,
    /// Columns of `op(B)`.
    pub n: usize,
    /// The `op(B)` selector the layout was derived under.
    pub trans: Transpose,
    /// Depth blocking.
    pub kc: usize,
    /// Column blocking.
    pub nc: usize,
    /// Kernel sliver width.
    pub nr: usize,
}

impl PanelGeometry {
    /// Validate the blocking parameters (all must be positive).
    pub fn validate(&self) -> Result<(), GemmError> {
        if self.nr == 0 || self.kc == 0 || self.nc == 0 {
            return Err(GemmError::BadConfig("prepack blocking must be positive"));
        }
        Ok(())
    }

    /// The tile walk in GEPP consumption order (`jj`-major, then `kk`):
    /// yields `(jj, kk, nc_eff, kc_eff)` for every tile. Both the live
    /// builder and the store loader iterate exactly this sequence, which
    /// is what makes on-disk panel offsets computable without an index
    /// table.
    pub fn tiles(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let (k, n, kc, nc) = (self.k, self.n, self.kc, self.nc);
        (0..n.div_ceil(nc)).flat_map(move |j| {
            let jj = j * nc;
            let nc_eff = nc.min(n - jj);
            (0..k.div_ceil(kc)).map(move |i| {
                let kk = i * kc;
                (jj, kk, nc_eff, kc.min(k - kk))
            })
        })
    }

    /// Number of tiles in the grid.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.n.div_ceil(self.nc) * self.k.div_ceil(self.kc)
    }

    /// Padded element count of the `(nc_eff, kc_eff)` tile — the length
    /// [`PackedB::pack`] gives its sliver buffer.
    #[must_use]
    pub fn panel_elems(&self, nc_eff: usize, kc_eff: usize) -> usize {
        nc_eff.div_ceil(self.nr) * self.nr * kc_eff
    }

    /// Total padded elements across all tiles (the store payload length).
    #[must_use]
    pub fn total_elems(&self) -> usize {
        self.tiles()
            .map(|(_, _, nc_eff, kc_eff)| self.panel_elems(nc_eff, kc_eff))
            .sum()
    }
}

/// Anything that can serve packed `kc×nc` tiles of one `op(B)` under a
/// fixed [`PanelGeometry`] — the seam behind which a live
/// [`PrepackedB`] and a store-loaded blob are interchangeable
/// ([`crate::store::encode`] serializes through this trait, not a
/// concrete builder).
pub trait PanelSource<T: Scalar> {
    /// The layout every tile conforms to.
    fn geometry(&self) -> PanelGeometry;
    /// The tile covering GEPP offsets `(jj, kk)`.
    fn panel(&self, jj: usize, kk: usize) -> &PackedB<T>;
    /// Total packed (padded) panel bytes.
    fn bytes(&self) -> usize;
}

/// An immutable pre-packed B operand: every `kc×nc` tile of `op(B)`,
/// packed into `nr`-sliver layout, in the order the GEPP loops consume
/// them (`jj`-major, then `kk`).
///
/// Each tile is its own [`Arc<PackedB>`] so the pool runtime can ship
/// the exact panel an epoch needs to its workers without copying —
/// the same ownership shape an epoch-packed panel has.
#[derive(Clone, Debug)]
pub struct PrepackedB<T: Scalar = f64> {
    /// Tiles indexed `(jj / nc) * k_tiles + kk / kc`.
    panels: Vec<Arc<PackedB<T>>>,
    k: usize,
    n: usize,
    trans: Transpose,
    kc: usize,
    nc: usize,
    nr: usize,
    bytes: usize,
}

impl<T: Scalar> PrepackedB<T> {
    /// Pack every `kc×nc` tile of `op(b)` (where `op` is `trans`) into
    /// `nr`-sliver layout. Allocation failures surface as
    /// [`GemmError::AllocFailure`]; callers on the transparent cache
    /// path fall back to per-call packing.
    pub fn try_build(
        b: &MatrixView<'_, T>,
        trans: Transpose,
        nr: usize,
        kc: usize,
        nc: usize,
    ) -> Result<Self, GemmError> {
        let (k, n) = trans.apply_dims(b.rows(), b.cols());
        let geom = PanelGeometry {
            k,
            n,
            trans,
            kc,
            nc,
            nr,
        };
        geom.validate()?;
        let mut panels = Vec::new();
        let mut bytes = 0usize;
        for (jj, kk, nc_eff, kc_eff) in geom.tiles() {
            // `PackedB::try_pack` is the same choke point the
            // per-call paths use, so layout, telemetry bytes and
            // the PackB phase span are recorded identically here.
            let mut panel = PackedB::new(nr);
            panel.try_pack(b, trans, kk, jj, kc_eff, nc_eff)?;
            bytes += std::mem::size_of_val(panel.buf());
            panels.push(Arc::new(panel));
        }
        Ok(PrepackedB {
            panels,
            k,
            n,
            trans,
            kc,
            nc,
            nr,
            bytes,
        })
    }

    /// Assemble a pre-packed operand from already-laid-out panels — the
    /// construction-free path the store loader uses. Each panel must be
    /// in tile-walk order ([`PanelGeometry::tiles`]) and structurally
    /// consistent with the grid cell it covers; violations surface as
    /// [`GemmError::BadStore`] so a malformed blob can never reach the
    /// compute layers.
    pub fn from_panels(
        geom: PanelGeometry,
        panels: Vec<Arc<PackedB<T>>>,
    ) -> Result<Self, GemmError> {
        if geom.validate().is_err() {
            return Err(GemmError::BadStore("blob blocking geometry is zero"));
        }
        if panels.len() != geom.tile_count() {
            return Err(GemmError::BadStore("blob panel count mismatches tile grid"));
        }
        let mut bytes = 0usize;
        for ((_, _, nc_eff, kc_eff), panel) in geom.tiles().zip(&panels) {
            if panel.nr() != geom.nr
                || panel.kc() != kc_eff
                || panel.nc() != nc_eff
                || panel.buf().len() != geom.panel_elems(nc_eff, kc_eff)
            {
                return Err(GemmError::BadStore("blob panel mismatches its grid cell"));
            }
            bytes += std::mem::size_of_val(panel.buf());
        }
        Ok(PrepackedB {
            panels,
            k: geom.k,
            n: geom.n,
            trans: geom.trans,
            kc: geom.kc,
            nc: geom.nc,
            nr: geom.nr,
            bytes,
        })
    }

    /// The layout these tiles conform to.
    #[must_use]
    pub fn geometry(&self) -> PanelGeometry {
        PanelGeometry {
            k: self.k,
            n: self.n,
            trans: self.trans,
            kc: self.kc,
            nc: self.nc,
            nr: self.nr,
        }
    }

    /// Pre-pack `b` (used as stored) for `cfg`'s kernel and blocking —
    /// the panels every GEMM under that config would otherwise pack per
    /// call.
    pub fn from_matrix(
        cfg: &crate::gemm::GemmConfig,
        b: &MatrixView<'_, T>,
    ) -> Result<Self, GemmError> {
        Self::from_matrix_op(cfg, Transpose::No, b)
    }

    /// [`PrepackedB::from_matrix`] with an explicit `op(B)` selector.
    pub fn from_matrix_op(
        cfg: &crate::gemm::GemmConfig,
        trans: Transpose,
        b: &MatrixView<'_, T>,
    ) -> Result<Self, GemmError> {
        Self::try_build(b, trans, cfg.kernel.nr(), cfg.blocks.kc, cfg.blocks.nc)
    }

    /// The tile covering GEPP offsets `(jj, kk)` (element offsets into
    /// `op(B)`, as the layer 1–2 loops carry them).
    #[must_use]
    pub fn panel(&self, jj: usize, kk: usize) -> &PackedB<T> {
        self.panel_arc(jj, kk)
    }

    /// The `Arc` of the tile covering `(jj, kk)`, for the pool runtime
    /// to clone to its workers.
    #[must_use]
    pub(crate) fn panel_arc(&self, jj: usize, kk: usize) -> &Arc<PackedB<T>> {
        debug_assert!(jj < self.n && kk < self.k, "tile offset out of range");
        let k_tiles = self.k.div_ceil(self.kc);
        &self.panels[(jj / self.nc) * k_tiles + kk / self.kc]
    }

    /// Hand the tile covering `(jj, kk)` out to a set of 2-D grid cells:
    /// each `(col0, ncols)` pair is a cell's column range *within the
    /// tile*, which must be a whole-sliver (`nr`-aligned) sub-range so
    /// the cells can address the shared packed data as sliver ranges
    /// ([`crate::gebp::gebp_slivers`]). Debug-checked here, at the one
    /// seam where cache-owned panels meet the grid schedule.
    #[must_use]
    pub(crate) fn tile_range(
        &self,
        jj: usize,
        kk: usize,
        cells: &[(usize, usize)],
    ) -> &Arc<PackedB<T>> {
        let arc = self.panel_arc(jj, kk);
        debug_assert!(
            cells
                .iter()
                .all(|&(col0, w)| col0 % self.nr == 0 && col0 + w <= arc.nc()),
            "grid cell column range not sliver-aligned within the cached tile"
        );
        arc
    }

    /// Whether this set was packed for exactly this geometry.
    #[must_use]
    pub fn matches(
        &self,
        k: usize,
        n: usize,
        trans: Transpose,
        nr: usize,
        kc: usize,
        nc: usize,
    ) -> bool {
        (self.k, self.n, self.trans, self.nr, self.kc, self.nc) == (k, n, trans, nr, kc, nc)
    }

    /// Rows of `op(B)` covered (the inner GEMM dimension).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of `op(B)` covered.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `op(B)` selector the tiles were packed under.
    #[must_use]
    pub fn trans(&self) -> Transpose {
        self.trans
    }

    /// Depth blocking the tiles were packed with.
    #[must_use]
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// Column blocking the tiles were packed with.
    #[must_use]
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Sliver width the tiles were packed with.
    #[must_use]
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Number of `kc×nc` tiles.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.panels.len()
    }

    /// Total bytes of packed (padded) panel data — what one uncached
    /// GEMM call would write through the packing path.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl<T: Scalar> PanelSource<T> for PrepackedB<T> {
    fn geometry(&self) -> PanelGeometry {
        PrepackedB::geometry(self)
    }

    fn panel(&self, jj: usize, kk: usize) -> &PackedB<T> {
        PrepackedB::panel(self, jj, kk)
    }

    fn bytes(&self) -> usize {
        PrepackedB::bytes(self)
    }
}

/// Identity of a cached pre-pack: operand identity plus packing
/// geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheKey {
    ptr: usize,
    rows: usize,
    cols: usize,
    ld: usize,
    trans: Transpose,
    nr: usize,
    kc: usize,
    nc: usize,
}

/// Monotone per-cache counters, mirrored into the process-wide
/// telemetry counters ([`crate::telemetry::Snapshot::cache`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that packed (or tried to pack) fresh panels.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries removed by [`PackCache::invalidate`].
    pub invalidations: u64,
    /// Packed-B bytes *not* re-packed thanks to hits (the amortized W).
    pub bytes_saved: u64,
}

struct CacheEntry<T: Scalar> {
    key: CacheKey,
    panels: Arc<PrepackedB<T>>,
    last_used: u64,
}

struct CacheState<T: Scalar> {
    entries: Vec<CacheEntry<T>>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl<T: Scalar> CacheState<T> {
    fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.panels.bytes()).sum()
    }

    fn evict_over_capacity(&mut self, keep: CacheKey) {
        while self.bytes() > self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| keep != e.key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            let Some(victim) = victim else { break };
            self.entries.remove(victim);
            self.stats.evictions += 1;
            crate::telemetry::cache_evict(1);
        }
    }
}

/// A bounded LRU cache of [`PrepackedB`] sets, one process-wide
/// instance per element type ([`crate::pool::PoolScalar::pack_cache`]).
///
/// All methods take `&self`; the state sits behind one mutex. A miss
/// packs under the lock — deliberate, so concurrent calls racing on the
/// same weight matrix pack it once instead of N times.
pub struct PackCache<T: Scalar = f64> {
    state: Mutex<CacheState<T>>,
}

impl<T: Scalar> PackCache<T> {
    /// An empty cache with [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub const fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache bounded to `capacity` bytes of packed panels.
    #[must_use]
    pub const fn with_capacity(capacity: usize) -> Self {
        PackCache {
            state: Mutex::new(CacheState {
                entries: Vec::new(),
                capacity,
                tick: 0,
                stats: CacheStats {
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    invalidations: 0,
                    bytes_saved: 0,
                },
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Return the cached pre-pack for `(b, trans, nr, kc, nc)`, packing
    /// and inserting it on a miss. `None` means packing failed to
    /// allocate — the caller should fall back to per-call packing. An
    /// entry larger than the whole capacity is returned but not
    /// retained.
    pub fn get_or_pack(
        &self,
        b: &MatrixView<'_, T>,
        trans: Transpose,
        nr: usize,
        kc: usize,
        nc: usize,
    ) -> Option<Arc<PrepackedB<T>>> {
        let mut st = self.lock();
        let key = CacheKey {
            ptr: b.data().as_ptr() as usize,
            rows: b.rows(),
            cols: b.cols(),
            ld: b.ld(),
            trans,
            nr,
            kc,
            nc,
        };
        st.tick += 1;
        let tick = st.tick;
        if let Some(i) = st.entries.iter().position(|e| e.key == key) {
            st.entries[i].last_used = tick;
            let panels = Arc::clone(&st.entries[i].panels);
            st.stats.hits += 1;
            st.stats.bytes_saved += panels.bytes() as u64;
            crate::telemetry::cache_hit(panels.bytes() as u64);
            return Some(panels);
        }
        st.stats.misses += 1;
        crate::telemetry::cache_miss();
        let panels = match PrepackedB::try_build(b, trans, nr, kc, nc) {
            Ok(p) => Arc::new(p),
            Err(_) => return None,
        };
        if panels.bytes() <= st.capacity {
            st.entries.push(CacheEntry {
                key,
                panels: Arc::clone(&panels),
                last_used: tick,
            });
            st.evict_over_capacity(key);
        }
        Some(panels)
    }

    /// Drop every entry whose packed source overlaps `b`'s storage —
    /// any geometry, including entries packed from interior sub-views
    /// (the level-3 routines cache those). Call after mutating `b` in
    /// place, and before freeing it. Returns how many entries were
    /// removed.
    pub fn invalidate(&self, b: &MatrixView<'_, T>) -> usize {
        let lo = b.data().as_ptr() as usize;
        let hi = lo + std::mem::size_of_val(b.data());
        let elem = std::mem::size_of::<T>();
        let mut st = self.lock();
        let before = st.entries.len();
        st.entries.retain(|e| {
            let k = &e.key;
            let span = if k.cols == 0 {
                0
            } else {
                (k.ld * (k.cols - 1) + k.rows) * elem
            };
            // keep iff [k.ptr, k.ptr+span) misses [lo, hi)
            k.ptr + span <= lo || hi <= k.ptr
        });
        let removed = before - st.entries.len();
        if removed > 0 {
            st.stats.invalidations += removed as u64;
            crate::telemetry::cache_invalidate(removed as u64);
        }
        removed
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total packed bytes currently retained.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.lock().bytes()
    }

    /// The capacity bound in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Drop every entry without touching the stats (test scaffolding and
    /// bulk memory release; invalidations are *not* counted).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// A copy of this cache's monotone counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

impl<T: Scalar> Default for PackCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// The tiles must be byte-for-byte what the per-call packing path
    /// produces for the same `(jj, kk)` walk.
    #[test]
    fn tiles_match_per_call_packing() {
        let b: Matrix = Matrix::random(37, 29, 11);
        for trans in [Transpose::No, Transpose::Yes] {
            let (k, n) = trans.apply_dims(37, 29);
            let (nr, kc, nc) = (6, 16, 12);
            let pp = PrepackedB::try_build(&b.view(), trans, nr, kc, nc).unwrap();
            let mut reference = PackedB::new(nr);
            let mut jj = 0usize;
            let mut tiles = 0usize;
            while jj < n {
                let nc_eff = nc.min(n - jj);
                let mut kk = 0usize;
                while kk < k {
                    let kc_eff = kc.min(k - kk);
                    reference.pack(&b.view(), trans, kk, jj, kc_eff, nc_eff);
                    assert_eq!(pp.panel(jj, kk).buf(), reference.buf(), "tile ({jj},{kk})");
                    tiles += 1;
                    kk += kc_eff;
                }
                jj += nc_eff;
            }
            assert_eq!(pp.tiles(), tiles);
            assert!(pp.matches(k, n, trans, nr, kc, nc));
            assert!(!pp.matches(k, n, trans, nr, kc, nc + 1));
        }
    }

    #[test]
    fn interior_offsets_address_the_same_tile() {
        let b: Matrix = Matrix::random(20, 20, 3);
        let pp = PrepackedB::try_build(&b.view(), Transpose::No, 4, 8, 6).unwrap();
        // any offset inside a tile resolves to that tile
        assert!(std::ptr::eq(pp.panel(0, 0), pp.panel(5, 7)));
        assert!(!std::ptr::eq(pp.panel(0, 0), pp.panel(6, 0)));
        assert!(!std::ptr::eq(pp.panel(0, 0), pp.panel(0, 8)));
    }

    #[test]
    fn zero_blocking_is_rejected() {
        let b: Matrix = Matrix::zeros(4, 4);
        assert!(PrepackedB::try_build(&b.view(), Transpose::No, 0, 8, 8).is_err());
        assert!(PrepackedB::try_build(&b.view(), Transpose::No, 4, 0, 8).is_err());
        assert!(PrepackedB::try_build(&b.view(), Transpose::No, 4, 8, 0).is_err());
    }

    #[test]
    fn cache_hits_and_lru_eviction_are_local_to_the_instance() {
        let cache: PackCache = PackCache::with_capacity(usize::MAX);
        let b1: Matrix = Matrix::random(24, 24, 1);
        let b2: Matrix = Matrix::random(24, 24, 2);
        let b3: Matrix = Matrix::random(24, 24, 3);
        let first = cache
            .get_or_pack(&b1.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        let again = cache
            .get_or_pack(&b1.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again), "second lookup must hit");
        // a different geometry for the same matrix is a distinct entry
        cache
            .get_or_pack(&b1.view(), Transpose::No, 6, 12, 8)
            .unwrap();
        cache
            .get_or_pack(&b2.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
        assert_eq!(s.bytes_saved as usize, first.bytes());
        assert_eq!(cache.len(), 3);

        // room for two: the third insert evicts the least recently used
        // (b2: b1 was touched after it), so b1 still hits
        let small: PackCache = PackCache::with_capacity(2 * first.bytes());
        for b in [&b1, &b2, &b1, &b3, &b1] {
            small
                .get_or_pack(&b.view(), Transpose::No, 6, 8, 8)
                .unwrap();
        }
        let s = small.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 3, 1));
    }

    #[test]
    fn invalidate_drops_overlapping_entries() {
        let cache: PackCache = PackCache::new();
        let b1: Matrix = Matrix::random(16, 16, 4);
        let b2: Matrix = Matrix::random(16, 16, 5);
        cache
            .get_or_pack(&b1.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        cache
            .get_or_pack(&b2.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        assert_eq!(cache.invalidate(&b1.view()), 1);
        assert_eq!(cache.invalidate(&b1.view()), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        // the next lookup of b1 packs afresh
        cache
            .get_or_pack(&b1.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        assert_eq!((cache.len(), cache.stats().misses), (2, 3));
    }

    #[test]
    fn oversized_entry_is_served_but_not_retained() {
        let cache: PackCache = PackCache::with_capacity(8);
        let b: Matrix = Matrix::random(32, 32, 6);
        let pp = cache
            .get_or_pack(&b.view(), Transpose::No, 6, 16, 16)
            .unwrap();
        assert!(pp.bytes() > 8);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0);
    }
}
