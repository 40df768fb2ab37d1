//! The opaque GraphBLAS vector (paper §III-A): `v = <D, N, {(i, v_i)}>`.
//!
//! Mirrors [`Matrix`](crate::object::Matrix): the size-carrying wrapper
//! over the crate's one generic object handle (`object::handle`); see
//! that module for the handle/node and delta semantics.

use crate::algebra::binary::BinaryOp;
use crate::error::{Error, Result};
use crate::exec::Node;
use crate::index::Index;
use crate::object::handle::Handle;
use crate::scalar::Scalar;
use crate::storage::coo::build_vector;
use crate::storage::delta::{DeltaOp, DeltaStats};
use crate::storage::snapshot::VectorSnapshot;
use crate::storage::vec::SparseVec;

pub(crate) type VectorNode<T> = Node<SparseVec<T>>;

/// An opaque GraphBLAS vector handle over domain `T`. `clone` copies the
/// *handle* (aliases the same object); use [`Vector::dup`] for a copy.
#[derive(Clone)]
pub struct Vector<T: Scalar> {
    n: Index,
    /// The object: value node and pending point updates, shared by
    /// handle clones.
    pub(crate) handle: Handle<SparseVec<T>>,
}

impl<T: Scalar> Vector<T> {
    /// `GrB_Vector_new(&v, domain, n)`: a vector with no stored elements.
    /// Size must be positive (paper §III-A: `N > 0`).
    pub fn new(n: Index) -> Result<Self> {
        Self::holding(SparseVec::empty(n))
    }

    /// A new object holding `value`, whose size must be positive.
    fn holding(value: SparseVec<T>) -> Result<Self> {
        if value.size() == 0 {
            return Err(Error::InvalidValue("vector size must be positive".into()));
        }
        Ok(Self::over(
            value.size(),
            Handle::new(Node::ready(value), ()),
        ))
    }

    /// The wrapper over an object of known size.
    pub(crate) fn over(n: Index, handle: Handle<SparseVec<T>>) -> Self {
        Vector { n, handle }
    }

    /// Convenience constructor from unique `(index, value)` tuples.
    pub fn from_tuples(n: Index, tuples: &[(Index, T)]) -> Result<Self> {
        let v = Vector::new(n)?;
        let idx: Vec<Index> = tuples.iter().map(|t| t.0).collect();
        let vals: Vec<T> = tuples.iter().map(|t| t.1.clone()).collect();
        let storage = build_vector(
            n,
            &idx,
            &vals,
            &crate::algebra::binary::First::<T, T>::new(),
        )?;
        if storage.nvals() != tuples.len() {
            return Err(Error::InvalidValue(
                "from_tuples given duplicate indices; use build() with a dup operator".into(),
            ));
        }
        v.handle.install(Node::ready(storage));
        Ok(v)
    }

    /// Convenience constructor storing every element of a dense slice.
    pub fn from_dense(vals: &[T]) -> Result<Self> {
        Self::holding(SparseVec::from_dense(vals))
    }

    /// `GrB_Vector_build`: copy elements from tuple arrays, combining
    /// duplicates with `dup`; the vector must be empty. Executes
    /// immediately in every mode (reads non-opaque arrays).
    pub fn build<F: BinaryOp<T, T, T>>(
        &self,
        indices: &[Index],
        vals: &[T],
        dup: &F,
    ) -> Result<()> {
        if self.nvals()? != 0 {
            return Err(Error::OutputNotEmpty(
                "build target must have no stored elements".into(),
            ));
        }
        let storage = build_vector(self.n, indices, vals, dup)?;
        self.handle.install(Node::ready(storage));
        Ok(())
    }

    /// `GrB_Vector_size`.
    pub fn size(&self) -> Index {
        self.n
    }

    /// `GrB_Vector_nvals`. Forces completion.
    pub fn nvals(&self) -> Result<usize> {
        Ok(self.handle.forced_storage()?.nvals())
    }

    /// `GrB_Vector_extractElement`. Forces completion.
    pub fn get(&self, i: Index) -> Result<Option<T>> {
        self.check_bounds(i)?;
        Ok(self.handle.forced_storage()?.get(i).cloned())
    }

    /// `GrB_Vector_setElement`. Appends to the pending-update buffer —
    /// O(1) amortized in every mode (§IV deferral latitude); merged by
    /// the background auto-flusher or the next completion-forcing read.
    /// See [`Matrix::set`](crate::object::Matrix::set).
    pub fn set(&self, i: Index, v: T) -> Result<()> {
        self.check_bounds(i)?;
        self.handle.push(i, DeltaOp::Put(v));
        Ok(())
    }

    /// `GrB_Vector_removeElement`. Deferred like [`Vector::set`];
    /// removing an absent element is a no-op, as the C API specifies.
    pub fn remove(&self, i: Index) -> Result<()> {
        self.check_bounds(i)?;
        self.handle.push(i, DeltaOp::Del);
        Ok(())
    }

    /// `GrB_Vector_extractTuples`. Forces completion.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, T)>> {
        self.extract_tuples_with(T::clone)
    }

    /// [`Vector::extract_tuples`] with each value mapped by `f` as it is
    /// read from the forced storage.
    pub fn extract_tuples_with<U>(&self, f: impl FnMut(&T) -> U) -> Result<Vec<(Index, U)>> {
        Ok(self.handle.forced_storage()?.map_tuples(f))
    }

    /// Dense rendering with `None` for absent elements. Forces completion.
    pub fn to_dense(&self) -> Result<Vec<Option<T>>> {
        Ok(self.handle.forced_storage()?.to_dense())
    }

    /// `GrB_Vector_clear`. Abandons the old value and any pending point
    /// updates.
    pub fn clear(&self) {
        self.handle.clear(self.n);
    }

    /// `GrB_Vector_dup`. Snapshot-cheap even with pending updates: the
    /// copy shares the base + sealed runs through the epoch's overlay
    /// node; the original's log is not drained. See
    /// [`Matrix::dup`](crate::object::Matrix::dup).
    pub fn dup(&self) -> Vector<T> {
        Self::over(self.n, self.handle.dup())
    }

    /// Take an O(1) immutable [`VectorSnapshot`] at the current delta
    /// epoch; see [`Matrix::snapshot`](crate::object::Matrix::snapshot).
    pub fn snapshot(&self) -> VectorSnapshot<T> {
        VectorSnapshot::new(self.n, self.handle.snapshot())
    }

    /// Pending-update introspection; see
    /// [`Matrix::delta_stats`](crate::object::Matrix::delta_stats).
    pub fn delta_stats(&self) -> DeltaStats {
        self.handle.delta_stats()
    }

    /// Force completion of this object alone (merges pending updates).
    pub fn wait(&self) -> Result<()> {
        self.handle.wait()
    }

    /// `true` once the value is computed and stored with no pending
    /// point updates.
    pub fn is_complete(&self) -> bool {
        self.handle.is_complete()
    }

    fn check_bounds(&self, i: Index) -> Result<()> {
        if i >= self.n {
            return Err(Error::InvalidIndex(format!(
                "index {i} out of bounds for vector of size {}",
                self.n
            )));
        }
        Ok(())
    }
}

impl<T: Scalar> std::fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Vector<{}>", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::binary::Plus;

    #[test]
    fn new_rejects_zero_size() {
        assert!(matches!(Vector::<i32>::new(0), Err(Error::InvalidValue(_))));
        assert!(matches!(
            Vector::<i32>::from_dense(&[]),
            Err(Error::InvalidValue(_))
        ));
    }

    #[test]
    fn constructors() {
        let v = Vector::<i32>::new(5).unwrap();
        assert_eq!(v.size(), 5);
        assert_eq!(v.nvals().unwrap(), 0);
        let v = Vector::from_tuples(5, &[(1, 10), (3, 30)]).unwrap();
        assert_eq!(v.get(3).unwrap(), Some(30));
        assert_eq!(v.get(0).unwrap(), None);
        let v = Vector::from_dense(&[7, 8]).unwrap();
        assert_eq!(v.nvals().unwrap(), 2);
    }

    #[test]
    fn from_tuples_rejects_duplicates() {
        assert!(Vector::from_tuples(3, &[(1, 1), (1, 2)]).is_err());
    }

    #[test]
    fn build_and_mutate() {
        let v = Vector::<i32>::new(4).unwrap();
        v.build(&[2, 0, 2], &[5, 1, 6], &Plus::new()).unwrap();
        assert_eq!(v.extract_tuples().unwrap(), vec![(0, 1), (2, 11)]);
        assert!(v.build(&[1], &[1], &Plus::new()).is_err()); // not empty
        v.set(1, 99).unwrap();
        v.remove(0).unwrap();
        assert_eq!(v.to_dense().unwrap(), vec![None, Some(99), Some(11), None]);
        v.clear();
        assert_eq!(v.nvals().unwrap(), 0);
    }

    #[test]
    fn clone_aliases_dup_copies() {
        let v = Vector::from_tuples(3, &[(0, 1)]).unwrap();
        let alias = v.clone();
        let copy = v.dup();
        v.set(2, 9).unwrap();
        assert_eq!(alias.get(2).unwrap(), Some(9));
        assert_eq!(copy.get(2).unwrap(), None);
    }

    #[test]
    fn build_after_clear_with_pending_ops() {
        let v = Vector::<i32>::new(3).unwrap();
        v.set(0, 1).unwrap();
        v.clear(); // abandons the pending set -> truly empty
        v.build(&[2], &[9], &Plus::new()).unwrap();
        assert_eq!(v.extract_tuples().unwrap(), vec![(2, 9)]);

        let v2 = Vector::<i32>::new(3).unwrap();
        v2.set(0, 1).unwrap(); // pending, no clear
        let e = v2.build(&[2], &[9], &Plus::new()).unwrap_err();
        assert!(matches!(e, Error::OutputNotEmpty(_)));
        assert_eq!(v2.get(0).unwrap(), Some(1)); // build flushed first
    }

    #[test]
    fn point_updates_defer_until_read() {
        let v = Vector::<i32>::new(4).unwrap();
        v.set(2, 5).unwrap();
        v.remove(0).unwrap(); // absent: no-op at merge
        assert!(!v.is_complete(), "set/remove buffer instead of forcing");
        assert_eq!(v.get(2).unwrap(), Some(5)); // read flushes
        assert!(v.is_complete());
        assert_eq!(v.nvals().unwrap(), 1);
    }

    #[test]
    fn bounds_checked() {
        let v = Vector::<i32>::new(2).unwrap();
        assert!(matches!(v.get(2), Err(Error::InvalidIndex(_))));
        assert!(matches!(v.set(5, 1), Err(Error::InvalidIndex(_))));
    }

    #[test]
    fn dup_with_pending_is_snapshot_cheap() {
        let v = Vector::from_tuples(3, &[(0, 1)]).unwrap();
        v.set(1, 5).unwrap();
        v.remove(0).unwrap();
        let copy = v.dup();
        assert!(!v.is_complete(), "dup must not drain the source log");
        assert_eq!(v.delta_stats().pending_len, 2);
        assert_eq!(copy.get(1).unwrap(), Some(5));
        assert_eq!(copy.get(0).unwrap(), None);
        v.set(2, 7).unwrap();
        assert_eq!(copy.get(2).unwrap(), None);
        assert_eq!(v.get(2).unwrap(), Some(7));
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let v = Vector::from_tuples(3, &[(0, 1)]).unwrap();
        v.set(1, 2).unwrap();
        let snap = v.snapshot();
        assert_eq!(snap.epoch(), 1);
        v.set(1, 99).unwrap();
        v.remove(0).unwrap();
        assert_eq!(v.nvals().unwrap(), 1); // flushes v, not the snapshot
        assert_eq!(snap.get(0).unwrap(), Some(1));
        assert_eq!(snap.get(1).unwrap(), Some(2));
        assert_eq!(snap.nvals().unwrap(), 2);
        assert_eq!(snap.extract_tuples().unwrap(), vec![(0, 1), (1, 2)]);
        let v2 = snap.to_vector();
        assert_eq!(v2.extract_tuples().unwrap(), vec![(0, 1), (1, 2)]);
    }
}
