//! The storage engine: one matrix value, stored as one CSR slab or as a
//! grid of CSR tiles.
//!
//! The paper's object model hides representation entirely — a
//! `GrB_Matrix` is just the set `L(A) = {(i, j, A_ij)}` (§III-A) — which
//! is precisely the latitude this module exploits. A [`MatrixStore`]
//! holds the same mathematical content in one of two layouts:
//!
//! * `Layout::Csr` — the general-purpose row-compressed slab;
//! * `Layout::Tiled` — a 2D grid of CSR blocks whose empty tiles hold
//!   no storage at all, chosen per matrix with `Matrix::set_tile_shape`.
//!
//! Column orientation is not a layout: it is an access path. Every kernel
//! reads the memoized [`MatrixStore::row_csr`] / [`MatrixStore::col_csr`]
//! views, so none knows the layout: a store converts to the orientation
//! a kernel asks for **once**, no matter how many consumers ask (the
//! `OnceLock` serializes concurrent first requests from kernel chunks
//! or racing readers), which is the "convert an intermediate once instead of
//! per-consumer" latitude of nonblocking mode. The tile grid is the unit
//! of the delta flush only (`kernel::merge::merge_into_store`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::index::Index;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::tiled::{self, Tiled};

/// The most tiles along either grid axis. Each populated tile keeps
/// `tile_nrows + 1` row pointers, so a grid holds up to
/// `grid_cols · (nrows + grid_rows)` of them: the bound keeps that within
/// 64 slabs' worth, where `u16::MAX` let one request ask for hundreds of
/// gigabytes.
pub const MAX_TILE_GRID_AXIS: usize = 64;

/// Per-object tiling policy: how the engine stores values computed into
/// an object — the one storage knob, set through `Matrix::set_tile_shape`
/// (`GxB_set(…, TileShape, …)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FormatPolicy {
    /// One CSR slab, as new matrices start.
    Auto,
    /// A 2D tile grid of the given shape. Build it with
    /// [`FormatPolicy::tiled`], which checks the grid.
    Tiled { rows: u16, cols: u16 },
}

impl FormatPolicy {
    /// The tiling policy for a `rows × cols` grid: `GrB_INVALID_VALUE`
    /// unless both axes are in `1..=MAX_TILE_GRID_AXIS`.
    pub fn tiled(rows: usize, cols: usize) -> Result<Self> {
        let axis_ok = |n| (1..=MAX_TILE_GRID_AXIS).contains(&n);
        if !(axis_ok(rows) && axis_ok(cols)) {
            return Err(Error::InvalidValue(format!(
                "tile grid {rows}x{cols}: each axis must be in 1..={MAX_TILE_GRID_AXIS}"
            )));
        }
        Ok(FormatPolicy::Tiled {
            rows: rows as u16,
            cols: cols as u16,
        })
    }

    /// The tile grid this policy shards into, if it is a tiling policy.
    pub fn tile_grid(self) -> Option<(usize, usize)> {
        match self {
            FormatPolicy::Tiled { rows, cols } => Some((rows as usize, cols as usize)),
            FormatPolicy::Auto => None,
        }
    }
}

/// The concrete layouts behind a [`MatrixStore`].
#[derive(Debug)]
pub(crate) enum Layout<T> {
    /// Row-compressed content.
    Csr(Arc<Csr<T>>),
    /// 2D grid of CSR blocks.
    Tiled(Arc<Tiled<T>>),
}

impl<T> Clone for Layout<T> {
    // manual: the variants are Arcs, so no `T: Clone` bound is needed
    fn clone(&self) -> Self {
        match self {
            Layout::Csr(c) => Layout::Csr(c.clone()),
            Layout::Tiled(g) => Layout::Tiled(g.clone()),
        }
    }
}

/// One matrix value in one of the layouts, with memoized CSR views of
/// both orientations so kernels can stay layout-generic.
#[derive(Debug)]
pub struct MatrixStore<T> {
    nrows: Index,
    ncols: Index,
    layout: Layout<T>,
    /// Memoized CSR of `A` (identity for `Csr` layouts).
    row_view: OnceLock<Arc<Csr<T>>>,
    /// Memoized CSR of `A^T`.
    col_view: OnceLock<Arc<Csr<T>>>,
    /// Per orientation (`[row, col]`), the model cost that plans over
    /// that view would have saved had it existed: the rent SpMSpV pays
    /// before it builds the view (see `MatrixStore::rent`). Relaxed: it
    /// publishes nothing, the view itself goes through its `OnceLock`.
    regret: [AtomicUsize; 2],
    /// Memoized per-row stored-element counts (`len = nrows`).
    row_degrees: OnceLock<Arc<[usize]>>,
    /// Memoized per-column stored-element counts (`len = ncols`).
    col_degrees: OnceLock<Arc<[usize]>>,
    /// Memoized bitwise symmetry (`A == A^T`, values compared by bits).
    symmetry: OnceLock<bool>,
}

impl<T> Clone for MatrixStore<T> {
    fn clone(&self) -> Self {
        MatrixStore {
            nrows: self.nrows,
            ncols: self.ncols,
            layout: self.layout.clone(),
            row_view: self.row_view.clone(),
            col_view: self.col_view.clone(),
            regret: self
                .regret
                .each_ref()
                .map(|r| AtomicUsize::new(r.load(Ordering::Relaxed))),
            row_degrees: self.row_degrees.clone(),
            col_degrees: self.col_degrees.clone(),
            symmetry: self.symmetry.clone(),
        }
    }
}

impl<T: Scalar> MatrixStore<T> {
    fn from_layout(nrows: Index, ncols: Index, layout: Layout<T>) -> Self {
        MatrixStore {
            nrows,
            ncols,
            layout,
            row_view: OnceLock::new(),
            col_view: OnceLock::new(),
            regret: Default::default(),
            row_degrees: OnceLock::new(),
            col_degrees: OnceLock::new(),
            symmetry: OnceLock::new(),
        }
    }

    /// An empty store (no stored elements) in CSR layout.
    pub fn empty(nrows: Index, ncols: Index) -> Self {
        Self::csr(Csr::empty(nrows, ncols))
    }

    /// Wrap a CSR value without conversion.
    pub fn csr(csr: Csr<T>) -> Self {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        Self::from_layout(nrows, ncols, Layout::Csr(Arc::new(csr)))
    }

    /// Wrap a natively produced tile grid without conversion.
    pub(crate) fn tiled(t: Tiled<T>) -> Self {
        let (nrows, ncols) = (t.nrows(), t.ncols());
        Self::from_layout(nrows, ncols, Layout::Tiled(Arc::new(t)))
    }

    /// Store a freshly computed CSR value under `policy`: as it is, or
    /// cut into the policy's tile grid.
    pub(crate) fn from_csr(csr: Csr<T>, policy: FormatPolicy) -> Self {
        Self::csr(csr).apply_policy(policy)
    }

    /// Re-store this value under `policy` (the migration step of
    /// `set_tile_shape` and of every computed output): tile it, or
    /// assemble it into one slab. A no-op when it is already stored so.
    pub(crate) fn apply_policy(self, policy: FormatPolicy) -> Self {
        match policy.tile_grid() {
            Some(grid) => self.into_tiled(grid),
            None => self.into_slab(),
        }
    }

    /// Convert to a tile grid of the given shape (clamped to the matrix
    /// dimensions), carrying property caches like every migration. A
    /// no-op when already tiled at that grid.
    fn into_tiled(self, grid: (usize, usize)) -> Self {
        let clamped = tiled::clamp_grid(self.nrows, self.ncols, grid);
        if let Layout::Tiled(t) = &self.layout {
            if t.grid() == clamped {
                return self;
            }
        }
        let slab = self.row_csr();
        let layout = Layout::Tiled(Arc::new(Tiled::from_csr(&slab, clamped)));
        let store = self.migrate(layout);
        // the slab this grid was cut from stays available as the row view
        let _ = store.row_view.set(slab);
        store
    }

    /// Assemble a tiled value into one CSR slab. A no-op on a slab.
    fn into_slab(self) -> Self {
        match self.layout {
            Layout::Csr(_) => self,
            Layout::Tiled(_) => {
                let layout = Layout::Csr(self.row_csr());
                self.migrate(layout)
            }
        }
    }

    /// This value in `layout`. Cached properties and the transpose view
    /// describe the mathematical content, not the layout, so a migration
    /// carries them over instead of recomputing.
    fn migrate(self, layout: Layout<T>) -> Self {
        let mut store = Self::from_layout(self.nrows, self.ncols, layout);
        store.col_view = self.col_view;
        store.row_degrees = self.row_degrees;
        store.col_degrees = self.col_degrees;
        store.symmetry = self.symmetry;
        store
    }

    /// The concrete layout, for the tile-granular flush.
    #[inline]
    pub(crate) fn layout(&self) -> &Layout<T> {
        &self.layout
    }

    /// The tile grid shape, when this value is stored tiled.
    pub fn tile_grid(&self) -> Option<(usize, usize)> {
        match &self.layout {
            Layout::Tiled(t) => Some(t.grid()),
            _ => None,
        }
    }

    #[inline]
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored elements, from the layout's own bookkeeping.
    pub fn nvals(&self) -> usize {
        match &self.layout {
            Layout::Csr(c) => c.nvals(),
            Layout::Tiled(t) => t.nvals(),
        }
    }

    /// Probe `(i, j)` in the native layout — no conversion, O(log row).
    pub fn get(&self, i: Index, j: Index) -> Option<&T> {
        match &self.layout {
            Layout::Csr(c) => c.get(i, j),
            Layout::Tiled(t) => t.get(i, j),
        }
    }

    /// All stored tuples in row-major order (`GrB_Matrix_extractTuples`).
    pub fn to_tuples(&self) -> Vec<(Index, Index, T)> {
        self.map_tuples(T::clone)
    }

    /// [`Self::to_tuples`] with each value mapped by `f` as it is read.
    pub fn map_tuples<U>(&self, f: impl FnMut(&T) -> U) -> Vec<(Index, Index, U)> {
        match &self.layout {
            Layout::Csr(c) => c.map_tuples(f),
            Layout::Tiled(_) => self.row_csr().map_tuples(f),
        }
    }

    /// The CSR rendering of this value (row orientation), converting at
    /// most once per store — concurrent consumers share the result.
    pub fn row_csr(&self) -> Arc<Csr<T>> {
        match &self.layout {
            Layout::Csr(c) => c.clone(),
            Layout::Tiled(t) => self.row_view.get_or_init(|| Arc::new(t.to_csr())).clone(),
        }
    }

    /// The CSR rendering of `A^T` (column orientation) — the engine's
    /// transpose view, converting at most once per store. A
    /// bitwise-symmetric value shares its row view instead of building a
    /// transposed copy (the degree pre-filter in [`Self::is_symmetric`]
    /// keeps the probe cheap for asymmetric inputs).
    pub fn col_csr(&self) -> Arc<Csr<T>> {
        self.col_view
            .get_or_init(|| {
                if self.is_symmetric() {
                    self.row_csr()
                } else {
                    Arc::new(self.row_csr().transpose())
                }
            })
            .clone()
    }

    /// `true` when the CSR view of the requested orientation is already
    /// materialized (a slab's own rows or a cached conversion) — lets kernels
    /// prefer plans whose operand views are free.
    pub fn csr_view_ready(&self, transposed: bool) -> bool {
        if transposed {
            self.col_view.get().is_some()
        } else {
            matches!(self.layout, Layout::Csr(_)) || self.row_view.get().is_some()
        }
    }

    /// Add `gap` to the regret of the orientation `transposed` names and
    /// return the total so far. Like the degree caches it lives and dies
    /// with the store, so every write, drain or migration starts from 0.
    pub(crate) fn rent(&self, transposed: bool, gap: usize) -> usize {
        let r = &self.regret[usize::from(transposed)];
        let prev = r.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| {
            Some(x.saturating_add(gap))
        });
        prev.unwrap_or_default().saturating_add(gap)
    }

    /// Per-row stored-element counts, computed once per store from the
    /// row view, O(nrows). Because the cache hangs off the *store* — and
    /// every delta-log drain or policy migration installs a fresh store —
    /// invalidation is automatic, and MVCC snapshots (which pin the old
    /// store) keep their old counts.
    pub fn row_degrees(&self) -> Arc<[usize]> {
        self.row_degrees
            .get_or_init(|| {
                let a = self.row_csr();
                (0..self.nrows).map(|i| a.row_nvals(i)).collect()
            })
            .clone()
    }

    /// Per-column stored-element counts, O(nvals + ncols) over the row
    /// view; same caching and invalidation story as
    /// [`MatrixStore::row_degrees`].
    pub fn col_degrees(&self) -> Arc<[usize]> {
        self.col_degrees
            .get_or_init(|| {
                let mut deg = vec![0usize; self.ncols];
                for &j in self.row_csr().col_idx() {
                    deg[j] += 1;
                }
                deg.into()
            })
            .clone()
    }

    /// Bitwise symmetry (`A(i,j) == A(j,i)` for every stored element,
    /// values compared by bits), memoized per store. Cheap to reject:
    /// non-square shapes, domains without a bit comparison, and any
    /// row/column degree mismatch bail before the O(nvals·log) probe.
    /// The probe itself reads the row view, so call this only when that
    /// view is materialized or about to be (as [`MatrixStore::col_csr`]
    /// does).
    pub fn is_symmetric(&self) -> bool {
        *self.symmetry.get_or_init(|| self.compute_symmetry())
    }

    fn compute_symmetry(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        if self.row_degrees() != self.col_degrees() {
            return false;
        }
        let a = self.row_csr();
        for i in 0..self.nrows {
            let (cols, vals) = a.row(i);
            for (&j, v) in cols.iter().zip(vals) {
                if j == i {
                    continue;
                }
                match a.get(j, i) {
                    Some(w) => match crate::scalar::value_bits_eq(v, w) {
                        Some(true) => {}
                        // unequal values, or a domain with no bitwise
                        // comparison: not (provably) symmetric
                        Some(false) | None => return false,
                    },
                    None => return false,
                }
            }
        }
        true
    }
}

impl<T: Scalar> crate::exec::node::StorageMeta for MatrixStore<T> {
    fn trace_shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }
    fn trace_nvals(&self) -> usize {
        self.nvals()
    }
    fn trace_format(&self) -> &'static str {
        match self.layout {
            Layout::Csr(_) => "csr",
            Layout::Tiled(_) => "tiled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<i32> {
        Csr::from_sorted_tuples(3, 3, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)])
    }

    /// The slab policy, or a tiling policy cut at `grid`.
    fn policy(grid: Option<(usize, usize)>) -> FormatPolicy {
        grid.map_or(FormatPolicy::Auto, |(r, c)| {
            FormatPolicy::tiled(r, c).unwrap()
        })
    }

    const GRIDS: [Option<(usize, usize)>; 2] = [None, Some((2, 2))];

    #[test]
    fn every_layout_preserves_content() {
        let csr = sample();
        for grid in GRIDS {
            let store = MatrixStore::csr(csr.clone()).apply_policy(policy(grid));
            assert_eq!(store.tile_grid(), grid, "{grid:?}");
            assert_eq!(store.nvals(), 4);
            assert_eq!(store.to_tuples(), csr.to_tuples(), "{grid:?}");
            assert_eq!(store.get(0, 2), Some(&2), "{grid:?}");
            assert_eq!(store.get(1, 1), None, "{grid:?}");
            assert_eq!(*store.row_csr(), csr, "{grid:?} row view");
            assert_eq!(*store.col_csr(), csr.transpose(), "{grid:?} col view");
        }
    }

    #[test]
    fn migration_to_the_current_layout_is_a_no_op() {
        let tiled = MatrixStore::csr(sample()).apply_policy(policy(Some((2, 2))));
        let Layout::Tiled(grid) = tiled.layout().clone() else {
            panic!("a tiling policy stores a tile grid");
        };
        let same = tiled.apply_policy(policy(Some((2, 2))));
        assert!(matches!(same.layout(), Layout::Tiled(g) if Arc::ptr_eq(g, &grid)));
        let slab = same.apply_policy(FormatPolicy::Auto);
        assert_eq!(slab.tile_grid(), None);
        assert_eq!(slab.to_tuples(), sample().to_tuples());
    }

    #[test]
    fn views_are_memoized() {
        // a grid built tile by tile has no slab: the row view is a conversion
        let store = MatrixStore::tiled(Tiled::from_csr(&sample(), (2, 2)));
        assert!(!store.csr_view_ready(false));
        let a = store.row_csr();
        assert!(store.csr_view_ready(false));
        let b = store.row_csr();
        assert!(Arc::ptr_eq(&a, &b), "second request reuses the conversion");
    }

    #[test]
    fn from_csr_tiles_only_under_a_tiling_policy() {
        // the slab policy keeps the value native
        let store = MatrixStore::from_csr(sample(), FormatPolicy::Auto);
        assert!(matches!(store.layout(), Layout::Csr(_)));
        // a tiling policy cuts the grid
        let store = MatrixStore::from_csr(sample(), FormatPolicy::tiled(2, 2).unwrap());
        assert_eq!(store.tile_grid(), Some((2, 2)));
    }

    #[test]
    fn tile_grids_are_checked() {
        assert!(FormatPolicy::tiled(1, MAX_TILE_GRID_AXIS).is_ok());
        for (r, c) in [(0, 4), (4, 0), (1, 65), (65, 1), (1, 65_535)] {
            assert!(
                matches!(FormatPolicy::tiled(r, c), Err(Error::InvalidValue(_))),
                "{r}x{c}"
            );
        }
    }

    #[test]
    fn degrees_agree_across_layouts() {
        for grid in GRIDS {
            let store = MatrixStore::csr(sample()).apply_policy(policy(grid));
            assert_eq!(&store.row_degrees()[..], &[2, 0, 2], "{grid:?} rows");
            assert_eq!(&store.col_degrees()[..], &[2, 1, 1], "{grid:?} cols");
        }
        // a grid with empty tiles and a genuinely empty tail
        let wide = Csr::from_sorted_tuples(6, 4, vec![(1, 3, 1i32), (4, 0, 2)]);
        let store = MatrixStore::tiled(Tiled::from_csr(&wide, (3, 2)));
        assert_eq!(&store.row_degrees()[..], &[0, 1, 0, 0, 1, 0]);
        assert_eq!(&store.col_degrees()[..], &[1, 0, 0, 1]);
    }

    #[test]
    fn degrees_are_memoized_per_store() {
        let store = MatrixStore::csr(sample());
        let a = store.row_degrees();
        let b = store.row_degrees();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn symmetric_store_shares_its_row_view_as_transpose() {
        let sym = Csr::from_sorted_tuples(
            3,
            3,
            vec![(0, 1, 5i32), (1, 0, 5), (1, 2, -7), (2, 1, -7), (2, 2, 1)],
        );
        let store = MatrixStore::csr(sym);
        assert!(store.is_symmetric());
        let r = store.row_csr();
        let c = store.col_csr();
        assert!(
            Arc::ptr_eq(&r, &c),
            "transpose of a symmetric value is free"
        );
    }

    #[test]
    fn asymmetry_is_detected() {
        // degree-symmetric but value-asymmetric: the probe must catch it
        let pat = Csr::from_sorted_tuples(2, 2, vec![(0, 1, 1i32), (1, 0, 2)]);
        let store = MatrixStore::csr(pat);
        assert!(!store.is_symmetric());
        // structurally asymmetric: rejected by the degree pre-filter
        let tri = MatrixStore::csr(sample());
        assert!(!tri.is_symmetric());
        // non-square is never symmetric
        let rect = MatrixStore::csr(Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1i32)]));
        assert!(!rect.is_symmetric());
    }

    #[test]
    fn float_symmetry_is_bitwise() {
        // 0.0 vs -0.0 are IEEE-equal but bitwise distinct: not symmetric
        let zeros = Csr::from_sorted_tuples(2, 2, vec![(0, 1, 0.0f64), (1, 0, -0.0)]);
        assert!(!MatrixStore::csr(zeros).is_symmetric());
        // NaNs with the same payload are bitwise equal: symmetric
        let nans = Csr::from_sorted_tuples(2, 2, vec![(0, 1, f64::NAN), (1, 0, f64::NAN)]);
        assert!(MatrixStore::csr(nans).is_symmetric());
    }

    #[test]
    fn migration_carries_property_caches() {
        let store = MatrixStore::csr(sample());
        let deg = store.row_degrees();
        let tr = store.col_csr();
        let tiled = store.apply_policy(policy(Some((2, 2))));
        assert!(Arc::ptr_eq(&deg, &tiled.row_degrees()));
        assert!(
            Arc::ptr_eq(&tr, &tiled.col_csr()),
            "the bought A^T survives"
        );
    }
}
