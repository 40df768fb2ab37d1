//! Sparse vector storage.
//!
//! A GraphBLAS vector `v = <D, N, {(i, v_i)}>` (paper §III-A) stores its
//! content as sorted `(index, value)` pairs. As with matrices, absent
//! elements are undefined, not zero.

use crate::index::Index;
use crate::scalar::Scalar;

/// Sorted sparse vector storage: the content of a GraphBLAS vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec<T> {
    n: Index,
    /// Strictly increasing stored indices.
    idx: Vec<Index>,
    /// Values, parallel to `idx`.
    vals: Vec<T>,
}

impl<T: Scalar> SparseVec<T> {
    /// An empty vector (no stored elements) of size `n`.
    pub fn empty(n: Index) -> Self {
        SparseVec {
            n,
            idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Assemble from sorted, duplicate-free parts.
    pub fn from_sorted_parts(n: Index, idx: Vec<Index>, vals: Vec<T>) -> Self {
        debug_assert_eq!(idx.len(), vals.len());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]), "indices not sorted");
        debug_assert!(idx.iter().all(|&i| i < n), "index out of range");
        SparseVec { n, idx, vals }
    }

    /// A fully dense vector holding `value` at every index.
    pub fn full(n: Index, value: T) -> Self {
        SparseVec {
            n,
            idx: (0..n).collect(),
            vals: vec![value; n],
        }
    }

    /// Build from a dense slice, storing every element (including zeros:
    /// GraphBLAS has no implied zero to elide).
    pub fn from_dense(vals: &[T]) -> Self {
        SparseVec {
            n: vals.len(),
            idx: (0..vals.len()).collect(),
            vals: vals.to_vec(),
        }
    }

    /// Size `N` of the vector (`GrB_Vector_size`).
    #[inline]
    pub fn size(&self) -> Index {
        self.n
    }

    /// Number of stored elements (`GrB_Vector_nvals`).
    #[inline]
    pub fn nvals(&self) -> usize {
        self.idx.len()
    }

    /// Every index `0..n` is stored, so the index array is exactly `0..n`
    /// and position `i` of [`SparseVec::vals`] holds `v(i)`.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.idx.len() == self.n
    }

    #[inline]
    pub fn indices(&self) -> &[Index] {
        &self.idx
    }

    #[inline]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    #[inline]
    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// `v(i)`: a reference to the stored value, or `None` if undefined.
    pub fn get(&self, i: Index) -> Option<&T> {
        self.idx.binary_search(&i).ok().map(|k| &self.vals[k])
    }

    /// Insert or overwrite element `i` (`GrB_Vector_setElement`).
    pub fn set(&mut self, i: Index, v: T) {
        match self.idx.binary_search(&i) {
            Ok(k) => self.vals[k] = v,
            Err(k) => {
                self.idx.insert(k, i);
                self.vals.insert(k, v);
            }
        }
    }

    /// Remove element `i` if stored (`GrB_Vector_removeElement`); returns
    /// whether an element was removed.
    pub fn remove(&mut self, i: Index) -> bool {
        match self.idx.binary_search(&i) {
            Ok(k) => {
                self.idx.remove(k);
                self.vals.remove(k);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate over stored `(i, &v)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, &T)> + '_ {
        self.idx.iter().copied().zip(self.vals.iter())
    }

    /// Extract all tuples (`GrB_Vector_extractTuples`).
    pub fn to_tuples(&self) -> Vec<(Index, T)> {
        self.map_tuples(T::clone)
    }

    /// [`SparseVec::to_tuples`] with each value mapped by `f` as it is read.
    pub fn map_tuples<U>(&self, mut f: impl FnMut(&T) -> U) -> Vec<(Index, U)> {
        self.iter().map(|(i, v)| (i, f(v))).collect()
    }

    /// Apply `f` to every stored value, keeping the pattern.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(&T) -> U) -> SparseVec<U> {
        SparseVec {
            n: self.n,
            idx: self.idx.clone(),
            vals: self.vals.iter().map(&mut f).collect(),
        }
    }

    /// Keep only stored elements satisfying the predicate.
    pub fn filter(&self, mut keep: impl FnMut(Index, &T) -> bool) -> SparseVec<T> {
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, v) in self.iter() {
            if keep(i, v) {
                idx.push(i);
                vals.push(v.clone());
            }
        }
        SparseVec {
            n: self.n,
            idx,
            vals,
        }
    }

    /// Dense rendering with `None` for absent elements (test helper).
    pub fn to_dense(&self) -> Vec<Option<T>> {
        let mut d = vec![None; self.n];
        for (i, v) in self.iter() {
            d[i] = Some(v.clone());
        }
        d
    }
}

impl<T> crate::exec::node::StorageMeta for SparseVec<T> {
    fn trace_shape(&self) -> (usize, usize) {
        (self.n, 1)
    }
    fn trace_nvals(&self) -> usize {
        self.idx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let v = SparseVec::<i32>::empty(5);
        assert_eq!(v.size(), 5);
        assert_eq!(v.nvals(), 0);
        let f = SparseVec::full(3, 1.0f32);
        assert_eq!(f.nvals(), 3);
        assert_eq!(f.get(2), Some(&1.0));
    }

    #[test]
    fn set_get_remove() {
        let mut v = SparseVec::empty(10);
        v.set(7, 70);
        v.set(2, 20);
        v.set(7, 77); // overwrite
        assert_eq!(v.get(7), Some(&77));
        assert_eq!(v.get(2), Some(&20));
        assert_eq!(v.get(3), None);
        assert_eq!(v.nvals(), 2);
        assert!(v.remove(2));
        assert!(!v.remove(2));
        assert_eq!(v.nvals(), 1);
        assert_eq!(v.to_tuples(), vec![(7, 77)]);
    }

    #[test]
    fn insertion_keeps_sorted_order() {
        let mut v = SparseVec::empty(6);
        for i in [5, 0, 3, 1] {
            v.set(i, i as i64);
        }
        assert_eq!(v.indices(), &[0, 1, 3, 5]);
    }

    #[test]
    fn from_dense_stores_everything() {
        let v = SparseVec::from_dense(&[0, 1, 0, 2]);
        // zeros are stored values, not absent: no implied zero
        assert_eq!(v.nvals(), 4);
        assert_eq!(v.get(0), Some(&0));
    }

    #[test]
    fn map_and_filter() {
        let v = SparseVec::from_sorted_parts(4, vec![0, 2, 3], vec![1, 2, 3]);
        let m = v.map(|x| x * 10);
        assert_eq!(m.to_tuples(), vec![(0, 10), (2, 20), (3, 30)]);
        let f = v.filter(|_, x| x % 2 == 1);
        assert_eq!(f.to_tuples(), vec![(0, 1), (3, 3)]);
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn to_dense_roundtrip() {
        let v = SparseVec::from_sorted_parts(4, vec![1, 3], vec![9, 8]);
        assert_eq!(v.to_dense(), vec![None, Some(9), None, Some(8)]);
    }
}
