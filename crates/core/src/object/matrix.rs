//! The opaque GraphBLAS matrix (paper §III-A):
//! `A = <D, M, N, {(i, j, A_ij)}>`.
//!
//! [`Matrix<T>`] is a *handle*, like the C API's `GrB_Matrix`: cloning a
//! handle aliases the same object (use [`Matrix::dup`] for a copy). It is
//! the dimension-carrying wrapper over the crate's one generic object
//! handle (`object::handle`), which owns the value node, the
//! pending-update log and everything concurrent; see that module for the
//! handle/node and delta semantics.
//!
//! Methods that export values to non-opaque data — [`Matrix::nvals`],
//! [`Matrix::get`], [`Matrix::extract_tuples`] — force completion of any
//! deferred computation defining this object, surfacing execution errors
//! (paper §IV/§V). Point mutations ([`Matrix::set`], [`Matrix::remove`])
//! exploit the same deferral latitude in the other direction: they
//! append to the pending-update log in O(1) amortized time.

use std::sync::Arc;

use crate::algebra::binary::BinaryOp;
use crate::error::{Error, Result};
use crate::exec::Node;
use crate::index::Index;
use crate::object::handle::Handle;
use crate::scalar::Scalar;
use crate::storage::coo::build_matrix;
use crate::storage::csr::Csr;
use crate::storage::delta::{DeltaOp, DeltaStats};
use crate::storage::engine::{FormatPolicy, MatrixStore};
use crate::storage::snapshot::MatrixSnapshot;

pub(crate) type MatrixNode<T> = Node<MatrixStore<T>>;

/// An opaque GraphBLAS matrix handle over domain `T`. `clone` copies the
/// *handle*: both values refer to the same object, exactly like copying a
/// `GrB_Matrix` in C.
#[derive(Clone)]
pub struct Matrix<T: Scalar> {
    nrows: Index,
    ncols: Index,
    /// The object: value node, tiling policy (the `GxB`-style
    /// `TileShape` option) and pending point updates, shared by handle
    /// clones.
    pub(crate) handle: Handle<MatrixStore<T>>,
}

impl<T: Scalar> Matrix<T> {
    /// `GrB_Matrix_new(&A, domain, nrows, ncols)`: a matrix with no stored
    /// elements. Dimensions must be positive (paper §III-A: `M, N > 0`);
    /// a row count whose storage cannot be allocated is `OutOfMemory`
    /// (`GrB_OUT_OF_MEMORY`, §V).
    pub fn new(nrows: Index, ncols: Index) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::InvalidValue(format!(
                "matrix dimensions must be positive, got {nrows}x{ncols}"
            )));
        }
        let empty = Node::ready(MatrixStore::csr(Csr::try_empty(nrows, ncols)?));
        Ok(Self::over(
            nrows,
            ncols,
            Handle::new(empty, FormatPolicy::Auto),
        ))
    }

    /// The wrapper over an object of known dimensions.
    pub(crate) fn over(nrows: Index, ncols: Index, handle: Handle<MatrixStore<T>>) -> Self {
        Matrix {
            nrows,
            ncols,
            handle,
        }
    }

    /// Convenience constructor from unique `(row, col, value)` tuples.
    /// Duplicate positions are rejected (`InvalidValue`); use
    /// [`Matrix::build`] with an explicit `dup` operator to combine them.
    pub fn from_tuples(nrows: Index, ncols: Index, tuples: &[(Index, Index, T)]) -> Result<Self> {
        let m = Matrix::new(nrows, ncols)?;
        let rows: Vec<Index> = tuples.iter().map(|t| t.0).collect();
        let cols: Vec<Index> = tuples.iter().map(|t| t.1).collect();
        let vals: Vec<T> = tuples.iter().map(|t| t.2.clone()).collect();
        // build with First, then detect duplicates from the count delta
        let storage = build_matrix(
            nrows,
            ncols,
            &rows,
            &cols,
            &vals,
            &crate::algebra::binary::First::<T, T>::new(),
        )?;
        if storage.nvals() != tuples.len() {
            return Err(Error::InvalidValue(
                "from_tuples given duplicate positions; use build() with a dup operator".into(),
            ));
        }
        m.install_csr(storage);
        Ok(m)
    }

    /// `GrB_Matrix_build`: copy elements from tuple arrays into this
    /// matrix, combining duplicates with `dup`. The matrix must hold no
    /// stored elements (`OutputNotEmpty` otherwise, as in the C API).
    ///
    /// Reads non-opaque arrays, so it executes immediately in every mode.
    pub fn build<F: BinaryOp<T, T, T>>(
        &self,
        rows: &[Index],
        cols: &[Index],
        vals: &[T],
        dup: &F,
    ) -> Result<()> {
        if self.nvals()? != 0 {
            return Err(Error::OutputNotEmpty(
                "build target must have no stored elements".into(),
            ));
        }
        let storage = build_matrix(self.nrows, self.ncols, rows, cols, vals, dup)?;
        self.install_csr(storage);
        Ok(())
    }

    /// `GrB_Matrix_nrows`.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// `GrB_Matrix_ncols`.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    /// `GrB_Matrix_nvals`: the number of stored elements. Forces
    /// completion.
    pub fn nvals(&self) -> Result<usize> {
        Ok(self.handle.forced_storage()?.nvals())
    }

    /// `GrB_Matrix_extractElement`: `Ok(Some(v))` if stored, `Ok(None)` if
    /// the element is undefined (the C API's `GrB_NO_VALUE`). Forces
    /// completion.
    pub fn get(&self, i: Index, j: Index) -> Result<Option<T>> {
        self.check_bounds(i, j)?;
        Ok(self.handle.forced_storage()?.get(i, j).cloned())
    }

    /// `GrB_Matrix_setElement`. Appends to the object's pending-update
    /// buffer — O(1) amortized in every mode, per §IV's latitude to
    /// defer point updates. The buffer is merged into the backing store
    /// (and the value re-stored under the object's tiling policy) by the
    /// time/size-windowed background auto-flusher, or eagerly by the next
    /// completion-forcing read: `nvals`/`get`/`extract_tuples`/`wait`.
    pub fn set(&self, i: Index, j: Index, v: T) -> Result<()> {
        self.check_bounds(i, j)?;
        self.handle.push((i, j), DeltaOp::Put(v));
        Ok(())
    }

    /// `GrB_Matrix_removeElement`. Deferred like [`Matrix::set`];
    /// removing an absent element is a no-op, as the C API specifies.
    pub fn remove(&self, i: Index, j: Index) -> Result<()> {
        self.check_bounds(i, j)?;
        self.handle.push((i, j), DeltaOp::Del);
        Ok(())
    }

    /// `GrB_Matrix_extractTuples`: all stored tuples in row-major order.
    /// Forces completion.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, Index, T)>> {
        self.extract_tuples_with(T::clone)
    }

    /// [`Matrix::extract_tuples`] with each value mapped by `f` as it is
    /// read from the forced storage: one pass, no intermediate tuples.
    pub fn extract_tuples_with<U>(&self, f: impl FnMut(&T) -> U) -> Result<Vec<(Index, Index, U)>> {
        Ok(self.handle.forced_storage()?.map_tuples(f))
    }

    /// `GrB_Matrix_clear`: remove all stored elements (dimensions kept).
    /// Never fails and never forces — the old value, complete or not,
    /// and any pending point updates are simply abandoned.
    pub fn clear(&self) {
        self.handle.clear(self.shape());
    }

    /// `GrB_Matrix_dup`: a new object with a copy of this object's
    /// current (possibly still deferred) value and tiling policy.
    /// Snapshot-cheap even with pending point updates: the copy shares
    /// the Arc'd base node and sealed runs through the epoch's overlay
    /// node — the original's log is *not* drained, and the overlay
    /// merge (shared with any same-epoch reader) runs only when one
    /// side observes the value.
    pub fn dup(&self) -> Matrix<T> {
        Self::over(self.nrows, self.ncols, self.handle.dup())
    }

    /// Take an O(1) immutable [`MatrixSnapshot`] of this object's value
    /// at the current delta epoch: the Arc'd base node plus Arc clones
    /// of the sealed runs. The snapshot never drains this handle's log
    /// and is unaffected by every later write, flush, or compaction —
    /// the MVCC read side of ingest-while-query streaming.
    pub fn snapshot(&self) -> MatrixSnapshot<T> {
        MatrixSnapshot::new(self.nrows, self.ncols, self.handle.snapshot())
    }

    /// Pending-update introspection: buffered entry count, sealed-run
    /// count, and the current epoch (the server's `STATS` surface).
    pub fn delta_stats(&self) -> DeltaStats {
        self.handle.delta_stats()
    }

    /// Per-row stored-element counts (`row_degrees[i]` = out-degree of
    /// vertex `i` for an adjacency matrix). Forces completion; the
    /// result is memoized on the backing store, so repeated calls — and
    /// the SpMSpV direction heuristic, which consults the same cache —
    /// are O(1) until the next merge swaps the store.
    pub fn row_degrees(&self) -> Result<Arc<[usize]>> {
        Ok(self.handle.forced_storage()?.row_degrees())
    }

    /// Per-column stored-element counts (in-degrees). Memoized like
    /// [`Matrix::row_degrees`].
    pub fn col_degrees(&self) -> Result<Arc<[usize]>> {
        Ok(self.handle.forced_storage()?.col_degrees())
    }

    // ----- tiling (the GxB-style per-object storage option) -----

    /// `GxB_set(matrix, TileShape, rows × cols)` analog: shard this
    /// object's value into a 2D tile grid, converting the current value
    /// now (forces completion) and directing future computed values into
    /// the same grid. The grid is clamped to the matrix dimensions; an
    /// axis outside `1..=MAX_TILE_GRID_AXIS` is `GrB_INVALID_VALUE`.
    pub fn set_tile_shape(&self, rows: usize, cols: usize) -> Result<()> {
        self.restore_under(FormatPolicy::tiled(rows, cols)?)
    }

    /// The configured tile grid, if this object is tiled.
    pub fn tile_shape(&self) -> Option<(usize, usize)> {
        self.handle.policy().tile_grid()
    }

    /// Undo [`Matrix::set_tile_shape`]: re-store the current value as a
    /// single slab (forces completion), as new matrices start.
    pub fn clear_tile_shape(&self) -> Result<()> {
        self.restore_under(FormatPolicy::Auto)
    }

    /// Re-store the current value under `policy`, unless it is already
    /// stored so, and direct future values there. The value is forced
    /// first: an object whose value fails keeps its old policy.
    fn restore_under(&self, policy: FormatPolicy) -> Result<()> {
        let store = self.handle.forced_storage()?;
        self.handle.set_policy(policy);
        let grid = policy
            .tile_grid()
            .map(|g| crate::storage::tiled::clamp_grid(self.nrows, self.ncols, g));
        if store.tile_grid() != grid {
            self.install_store((*store).clone().apply_policy(policy));
        }
        Ok(())
    }

    /// Force completion of this object alone (the released C spec's
    /// per-object `GrB_Matrix_wait`), surfacing any execution error from
    /// its defining computation. Merges any pending point updates.
    pub fn wait(&self) -> Result<()> {
        self.handle.wait()
    }

    /// `true` once the object's value is computed and stored with no
    /// pending point updates. Diagnostic for the execution-model tests.
    pub fn is_complete(&self) -> bool {
        self.handle.is_complete()
    }

    fn check_bounds(&self, i: Index, j: Index) -> Result<()> {
        if i >= self.nrows || j >= self.ncols {
            return Err(Error::InvalidIndex(format!(
                "({i}, {j}) out of bounds for {}x{} matrix",
                self.nrows, self.ncols
            )));
        }
        Ok(())
    }

    /// Publish an immediately computed CSR value, stored under this
    /// object's tiling policy.
    pub(crate) fn install_csr(&self, csr: Csr<T>) {
        self.install_store(MatrixStore::from_csr(csr, self.handle.policy()));
    }

    fn install_store(&self, store: MatrixStore<T>) {
        self.handle.install(Node::ready(store));
    }
}

/// Read a complete node's value as CSR in the orientation the descriptor
/// asks for, through the store's memoized views: the transpose is built
/// once per node no matter how many consumers ask, and later `transposed`
/// reads of the same value are free.
pub(crate) fn oriented_storage<T: Scalar>(
    node: &Arc<MatrixNode<T>>,
    transposed: bool,
) -> Result<Arc<Csr<T>>> {
    let store = node.ready_storage()?;
    Ok(if transposed {
        store.col_csr()
    } else {
        store.row_csr()
    })
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix<{}x{}>", self.nrows, self.ncols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::binary::Plus;

    #[test]
    fn new_rejects_zero_dimensions() {
        assert!(matches!(
            Matrix::<i32>::new(0, 3),
            Err(Error::InvalidValue(_))
        ));
        assert!(matches!(
            Matrix::<i32>::new(3, 0),
            Err(Error::InvalidValue(_))
        ));
    }

    #[test]
    fn new_reports_an_unallocatable_row_count_as_out_of_memory() {
        // `usize::MAX + 1` row pointers overflow; `usize::MAX / 8 + 1`
        // of them overflow the allocator's byte count. Neither depends on
        // how the machine overcommits.
        for nrows in [usize::MAX, usize::MAX / 8] {
            assert!(
                matches!(Matrix::<bool>::new(nrows, 4), Err(Error::OutOfMemory(_))),
                "{nrows} rows"
            );
        }
    }

    #[test]
    fn new_matrix_is_empty() {
        let m = Matrix::<f64>::new(3, 4).unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nvals().unwrap(), 0);
        assert_eq!(m.get(1, 2).unwrap(), None);
    }

    #[test]
    fn from_tuples_and_roundtrip() {
        let m = Matrix::from_tuples(2, 3, &[(0, 1, 5), (1, 2, 7)]).unwrap();
        assert_eq!(m.extract_tuples().unwrap(), vec![(0, 1, 5), (1, 2, 7)]);
        assert_eq!(m.get(0, 1).unwrap(), Some(5));
    }

    #[test]
    fn from_tuples_rejects_duplicates() {
        let e = Matrix::from_tuples(2, 2, &[(0, 0, 1), (0, 0, 2)]).unwrap_err();
        assert!(matches!(e, Error::InvalidValue(_)));
    }

    #[test]
    fn build_combines_duplicates() {
        let m = Matrix::<i32>::new(2, 2).unwrap();
        m.build(&[0, 0, 1], &[1, 1, 0], &[2, 3, 9], &Plus::new())
            .unwrap();
        assert_eq!(m.get(0, 1).unwrap(), Some(5));
        assert_eq!(m.get(1, 0).unwrap(), Some(9));
    }

    #[test]
    fn build_requires_empty_target() {
        let m = Matrix::from_tuples(2, 2, &[(0, 0, 1)]).unwrap();
        let e = m.build(&[1], &[1], &[2], &Plus::new()).unwrap_err();
        assert!(matches!(e, Error::OutputNotEmpty(_)));
    }

    #[test]
    fn set_get_remove_clear() {
        let m = Matrix::<i32>::new(2, 2).unwrap();
        m.set(0, 1, 10).unwrap();
        m.set(1, 0, 20).unwrap();
        m.set(0, 1, 11).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), Some(11));
        assert_eq!(m.nvals().unwrap(), 2);
        m.remove(0, 1).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), None);
        m.clear();
        assert_eq!(m.nvals().unwrap(), 0);
        assert_eq!(m.shape(), (2, 2));
    }

    #[test]
    fn bounds_are_api_errors() {
        let m = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(m.get(2, 0), Err(Error::InvalidIndex(_))));
        assert!(matches!(m.set(0, 5, 1), Err(Error::InvalidIndex(_))));
        assert!(matches!(m.remove(9, 9), Err(Error::InvalidIndex(_))));
    }

    #[test]
    fn point_updates_defer_until_read() {
        let m = Matrix::<i32>::new(4, 4).unwrap();
        m.set(1, 1, 5).unwrap();
        m.set(1, 1, 6).unwrap(); // last write wins
        m.remove(3, 3).unwrap(); // absent: no-op at merge
        assert!(!m.is_complete(), "set/remove buffer instead of forcing");
        assert_eq!(m.get(1, 1).unwrap(), Some(6)); // read flushes
        assert!(m.is_complete());
        assert_eq!(m.nvals().unwrap(), 1);
    }

    #[test]
    fn build_after_clear_with_pending_ops() {
        // clear() abandons pending point updates, so a subsequent build
        // targets a truly-empty matrix and succeeds
        let m = Matrix::<i32>::new(2, 2).unwrap();
        m.set(0, 0, 1).unwrap();
        m.clear();
        m.build(&[1], &[1], &[7], &Plus::new()).unwrap();
        assert_eq!(m.extract_tuples().unwrap(), vec![(1, 1, 7)]);

        // pending updates WITHOUT a clear are part of the value: build
        // flushes them first and then errors on the non-empty target
        let m2 = Matrix::<i32>::new(2, 2).unwrap();
        m2.set(0, 0, 1).unwrap();
        let e = m2.build(&[1], &[1], &[7], &Plus::new()).unwrap_err();
        assert!(matches!(e, Error::OutputNotEmpty(_)));
        assert_eq!(m2.get(0, 0).unwrap(), Some(1)); // flush happened
    }

    #[test]
    fn clear_discards_pending_updates() {
        let m = Matrix::<i32>::new(2, 2).unwrap();
        m.set(0, 0, 1).unwrap();
        m.clear();
        assert_eq!(m.nvals().unwrap(), 0);
        assert!(m.is_complete());
    }

    #[test]
    fn clone_aliases_dup_copies() {
        let m = Matrix::from_tuples(2, 2, &[(0, 0, 1)]).unwrap();
        let alias = m.clone();
        let copy = m.dup();
        m.set(1, 1, 9).unwrap();
        assert_eq!(alias.get(1, 1).unwrap(), Some(9)); // same object
        assert_eq!(copy.get(1, 1).unwrap(), None); // snapshot copy
    }

    #[test]
    fn dup_with_pending_is_snapshot_cheap() {
        // Regression: dup() used to force a full flush of the source's
        // pending updates. It must now share the base + runs and leave
        // the source log untouched.
        let m = Matrix::from_tuples(3, 3, &[(0, 0, 1)]).unwrap();
        m.set(1, 1, 5).unwrap();
        m.remove(0, 0).unwrap();
        let copy = m.dup();
        assert!(!m.is_complete(), "dup must not drain the source log");
        assert_eq!(m.delta_stats().pending_len, 2);
        // The copy sees the pending updates as part of its value…
        assert_eq!(copy.get(1, 1).unwrap(), Some(5));
        assert_eq!(copy.get(0, 0).unwrap(), None);
        // …and stays isolated from writes after the dup.
        m.set(2, 2, 7).unwrap();
        assert_eq!(copy.get(2, 2).unwrap(), None);
        assert_eq!(m.get(2, 2).unwrap(), Some(7));
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let m = Matrix::from_tuples(2, 2, &[(0, 0, 1)]).unwrap();
        m.set(0, 1, 2).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.epoch(), 1);
        // Writes and reads after the snapshot don't change its view.
        m.set(0, 1, 99).unwrap();
        m.remove(0, 0).unwrap();
        assert_eq!(m.nvals().unwrap(), 1); // forces a flush on m
        assert_eq!(snap.get(0, 0).unwrap(), Some(1));
        assert_eq!(snap.get(0, 1).unwrap(), Some(2));
        assert_eq!(snap.nvals().unwrap(), 2);
        assert_eq!(snap.extract_tuples().unwrap(), vec![(0, 0, 1), (0, 1, 2)]);
        // Snapshot reads never drained the source's log (it was drained
        // by m.nvals above, not by the snapshot).
        let m2 = snap.to_matrix();
        assert_eq!(m2.extract_tuples().unwrap(), vec![(0, 0, 1), (0, 1, 2)]);
    }

    #[test]
    fn a_failed_tiling_change_keeps_the_old_policy() {
        use crate::algebra::semiring::plus_times;
        use crate::exec::Context;
        use crate::{Descriptor, NoAccum, NoMask};

        let ctx = Context::nonblocking();
        let a = Matrix::from_tuples(8, 8, &[(0, 1, 2), (1, 0, 3)]).unwrap();
        let failed = |c: &Matrix<i32>| {
            ctx.inject_fault(Error::Panic("fault".into()));
            let desc = Descriptor::default();
            ctx.mxm(c, NoMask, NoAccum, plus_times::<i32>(), &a, &a, &desc)
                .unwrap();
        };
        // setting a grid on an invalid object reports its error and
        // leaves it untiled
        let c = Matrix::<i32>::new(8, 8).unwrap();
        failed(&c);
        assert!(matches!(c.set_tile_shape(4, 4), Err(Error::Panic(_))));
        assert_eq!(c.tile_shape(), None);
        // clearing the grid of one keeps the grid
        let c = Matrix::<i32>::new(8, 8).unwrap();
        c.set_tile_shape(2, 2).unwrap();
        failed(&c);
        assert!(matches!(c.clear_tile_shape(), Err(Error::Panic(_))));
        assert_eq!(c.tile_shape(), Some((2, 2)));
        let _ = ctx.wait();
    }

    #[test]
    fn same_epoch_readers_share_one_overlay() {
        let m = Matrix::<i32>::new(4, 4).unwrap();
        m.set(1, 2, 3).unwrap();
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.nvals().unwrap(), 1);
        assert_eq!(b.get(1, 2).unwrap(), Some(3));
    }
}
