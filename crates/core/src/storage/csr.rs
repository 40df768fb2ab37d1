//! Compressed-sparse-row storage.
//!
//! The opaque [`Matrix`](crate::object::Matrix) stores its content
//! `L(A) = {(i, j, A_ij)}` (paper §III-A) in CSR form: a row-pointer
//! array, sorted column indices per row, and values. Absent elements are
//! *undefined* — there is no implied zero anywhere in this layer; kernels
//! operate on stored-index sets only, exactly as in the paper's
//! set-notation definition of the operations.

use crate::error::{Error, Result};
use crate::index::Index;
use crate::scalar::Scalar;

/// CSR sparse matrix storage: the content of a GraphBLAS matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    nrows: Index,
    ncols: Index,
    /// `row_ptr[i]..row_ptr[i+1]` is the slice of row `i`; length `nrows+1`.
    row_ptr: Vec<usize>,
    /// Column indices, strictly increasing within each row.
    col_idx: Vec<Index>,
    /// Values, parallel to `col_idx`.
    vals: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// An empty matrix (no stored elements) of the given shape.
    pub fn empty(nrows: Index, ncols: Index) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// [`Csr::empty`] for a shape that may not fit in memory: a row
    /// pointer of `nrows + 1` entries that overflows `usize` or cannot be
    /// allocated is `OutOfMemory` instead of an abort.
    pub fn try_empty(nrows: Index, ncols: Index) -> Result<Self> {
        let oom = || Error::OutOfMemory(format!("no room for the row pointer of {nrows} rows"));
        let len = nrows.checked_add(1).ok_or_else(oom)?;
        // `vec![0; len]` aborts the process when the allocator refuses,
        // so ask first with a reservation that is dropped at once. `empty`
        // then allocates through calloc, whose zero pages cost no resident
        // memory until written; filling the reservation would touch them.
        Vec::<usize>::new()
            .try_reserve_exact(len)
            .map_err(|_| oom())?;
        Ok(Self::empty(nrows, ncols))
    }

    /// Assemble from raw parts. Invariants (checked in debug builds):
    /// `row_ptr` is monotone with `row_ptr[0] == 0` and
    /// `row_ptr[nrows] == col_idx.len() == vals.len()`; column indices are
    /// strictly increasing within each row and `< ncols`.
    pub fn from_parts(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.first().unwrap_or(&0), 0);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert_eq!(col_idx.len(), vals.len());
        #[cfg(debug_assertions)]
        for i in 0..nrows {
            let r = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            debug_assert!(r.windows(2).all(|w| w[0] < w[1]), "row {i} not sorted");
            debug_assert!(r.iter().all(|&j| j < ncols), "row {i} col out of range");
        }
        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// A fully dense matrix holding `value` at every position.
    pub fn full(nrows: Index, ncols: Index, value: T) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: std::iter::successors(Some(0), |p| Some(p + ncols))
                .take(nrows + 1)
                .collect(),
            col_idx: (0..ncols).collect::<Vec<_>>().repeat(nrows),
            vals: vec![value; nrows * ncols],
        }
    }

    /// Build from tuples that are already sorted by `(row, col)` with no
    /// duplicates.
    pub fn from_sorted_tuples(
        nrows: Index,
        ncols: Index,
        tuples: impl IntoIterator<Item = (Index, Index, T)>,
    ) -> Self {
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        #[cfg(debug_assertions)]
        let mut last: Option<(Index, Index)> = None;
        for (i, j, v) in tuples {
            debug_assert!(i < nrows && j < ncols);
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    last.is_none_or(|l| l < (i, j)),
                    "tuples not strictly sorted by (row, col) at ({i}, {j})"
                );
                last = Some((i, j));
            }
            row_ptr[i + 1] += 1;
            col_idx.push(j);
            vals.push(v);
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr::from_parts(nrows, ncols, row_ptr, col_idx, vals)
    }

    #[inline]
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored elements (`GrB_Matrix_nvals`).
    #[inline]
    pub fn nvals(&self) -> usize {
        self.col_idx.len()
    }

    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    #[inline]
    pub fn col_idx(&self) -> &[Index] {
        &self.col_idx
    }

    #[inline]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    #[inline]
    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// The stored row `i` as `(column indices, values)`.
    #[inline]
    pub fn row(&self, i: Index) -> (&[Index], &[T]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of stored elements in row `i`.
    #[inline]
    pub fn row_nvals(&self, i: Index) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// `A(i, j)`: a reference to the stored value, or `None` if the element
    /// is not stored (the paper's "undefined").
    pub fn get(&self, i: Index, j: Index) -> Option<&T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|k| &vals[k])
    }

    /// Iterate over all stored tuples `(i, j, &v)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, v)| (i, j, v))
        })
    }

    /// Extract all tuples (`GrB_Matrix_extractTuples`), row-major.
    pub fn to_tuples(&self) -> Vec<(Index, Index, T)> {
        self.map_tuples(T::clone)
    }

    /// [`Csr::to_tuples`] with each value mapped by `f` as it is read.
    /// Each row is one `extend` from its column and value slices.
    pub fn map_tuples<U>(&self, mut f: impl FnMut(&T) -> U) -> Vec<(Index, Index, U)> {
        let mut out = Vec::with_capacity(self.nvals());
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            out.extend(cols.iter().zip(vals).map(|(&j, v)| (i, j, f(v))));
        }
        out
    }

    /// The transpose `A^T = <D, N, M, {(j, i, A_ij)}>` (paper §III-A),
    /// via counting sort — O(nvals + nrows + ncols).
    pub fn transpose(&self) -> Csr<T> {
        let Some(first) = self.vals.first() else {
            return Csr::empty(self.ncols, self.nrows);
        };
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &j in &self.col_idx {
            row_ptr[j + 1] += 1;
        }
        for j in 0..self.ncols {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0 as Index; self.nvals()];
        // every slot is overwritten by the scatter below; the first value
        // only gives the array a `T` to start from
        let mut vals = vec![first.clone(); self.nvals()];
        for i in 0..self.nrows {
            let (cols, v) = self.row(i);
            for (k, &j) in cols.iter().enumerate() {
                let p = cursor[j];
                cursor[j] += 1;
                col_idx[p] = i;
                vals[p] = v[k].clone();
            }
        }
        Csr::from_parts(self.ncols, self.nrows, row_ptr, col_idx, vals)
    }

    /// Apply `f` to every stored value, producing a new storage with the
    /// same pattern (the `apply` kernel's core).
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(&T) -> U) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.iter().map(&mut f).collect(),
        }
    }

    /// Keep only stored elements satisfying the predicate (pattern and
    /// values), preserving order.
    pub fn filter(&self, mut keep: impl FnMut(Index, Index, &T) -> bool) -> Csr<T> {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.nrows {
            let (cols, v) = self.row(i);
            for (k, &j) in cols.iter().enumerate() {
                if keep(i, j, &v[k]) {
                    col_idx.push(j);
                    vals.push(v[k].clone());
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Insert or overwrite element `(i, j)` (`GrB_Matrix_setElement`).
    /// O(nvals) worst case — CSR favors bulk `build` over point updates.
    pub fn set_element(&mut self, i: Index, j: Index, v: T) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.vals[lo + k] = v,
            Err(k) => {
                self.col_idx.insert(lo + k, j);
                self.vals.insert(lo + k, v);
                for p in &mut self.row_ptr[i + 1..] {
                    *p += 1;
                }
            }
        }
    }

    /// Remove element `(i, j)` if stored (`GrB_Matrix_removeElement`);
    /// returns whether an element was removed.
    pub fn remove_element(&mut self, i: Index, j: Index) -> bool {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => {
                self.col_idx.remove(lo + k);
                self.vals.remove(lo + k);
                for p in &mut self.row_ptr[i + 1..] {
                    *p -= 1;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Dense row-major rendering with `None` for absent elements
    /// (test/debug helper; absent ≠ zero, so the dense form is `Option`al).
    pub fn to_dense(&self) -> Vec<Vec<Option<T>>> {
        let mut d = vec![vec![None; self.ncols]; self.nrows];
        for (i, j, v) in self.iter() {
            d[i][j] = Some(v.clone());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stores_every_position() {
        for (nrows, ncols) in [(0, 5), (5, 0), (3, 4)] {
            let f = Csr::full(nrows, ncols, 7u8);
            let want: Vec<_> = (0..nrows)
                .flat_map(|i| (0..ncols).map(move |j| (i, j, 7u8)))
                .collect();
            assert_eq!(f, Csr::from_sorted_tuples(nrows, ncols, want));
            assert_eq!(f.row_ptr().len(), nrows + 1);
        }
    }

    fn sample() -> Csr<i32> {
        // [ 1 . 2 ]
        // [ . . . ]
        // [ 3 4 . ]
        Csr::from_sorted_tuples(3, 3, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)])
    }

    #[test]
    fn empty_has_no_values() {
        let m = Csr::<f32>::empty(4, 5);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 5);
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.get(2, 3), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn zero_dimension_storage_is_representable() {
        // The object layer rejects M == 0 || N == 0 per the spec; storage
        // itself stays total.
        let m = Csr::<i32>::empty(0, 0);
        assert_eq!(m.nvals(), 0);
    }

    #[test]
    fn get_distinguishes_stored_from_undefined() {
        let m = sample();
        assert_eq!(m.get(0, 0), Some(&1));
        assert_eq!(m.get(0, 1), None); // undefined, not zero
        assert_eq!(m.get(2, 1), Some(&4));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn rows_and_iteration() {
        let m = sample();
        assert_eq!(m.row(0), (&[0, 2][..], &[1, 2][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row_nvals(2), 2);
        assert_eq!(
            m.to_tuples(),
            vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]
        );
    }

    #[test]
    fn transpose_swaps_tuples() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 3);
        assert_eq!(
            t.to_tuples(),
            vec![(0, 0, 1), (0, 2, 3), (1, 2, 4), (2, 0, 2)]
        );
        // involution
        assert_eq!(t.transpose(), m);
        // no stored elements: the shape still swaps
        assert_eq!(Csr::<i32>::empty(2, 5).transpose(), Csr::empty(5, 2));
    }

    #[test]
    fn transpose_rectangular() {
        let m = Csr::from_sorted_tuples(2, 4, vec![(0, 3, 10), (1, 0, 20)]);
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(3, 0), Some(&10));
        assert_eq!(t.get(0, 1), Some(&20));
        // empty rows (0, 2, 4) and columns (1, 3, 4) around the stored ones
        let m = Csr::from_sorted_tuples(5, 5, vec![(1, 2, 7), (3, 0, 8), (3, 2, 9)]);
        let t = m.transpose();
        assert_eq!(t.to_tuples(), vec![(0, 3, 8), (2, 1, 7), (2, 3, 9)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn map_preserves_pattern() {
        let m = sample();
        let d = m.map(|v| *v as f64 * 0.5);
        assert_eq!(d.nvals(), m.nvals());
        assert_eq!(d.get(2, 1), Some(&2.0));
        assert_eq!(d.get(1, 1), None);
    }

    #[test]
    fn filter_drops_entries() {
        let m = sample();
        let f = m.filter(|_, _, v| *v % 2 == 1);
        assert_eq!(f.to_tuples(), vec![(0, 0, 1), (2, 0, 3)]);
        assert_eq!(f.nrows(), 3);
    }

    #[test]
    fn set_and_remove_elements() {
        let mut m = sample();
        m.set_element(1, 1, 99); // into an empty row
        assert_eq!(m.get(1, 1), Some(&99));
        assert_eq!(m.nvals(), 5);
        m.set_element(0, 0, 7); // overwrite
        assert_eq!(m.get(0, 0), Some(&7));
        assert_eq!(m.nvals(), 5);
        m.set_element(0, 1, 8); // insert mid-row
        assert_eq!(m.row(0), (&[0, 1, 2][..], &[7, 8, 2][..]));
        assert!(m.remove_element(0, 1));
        assert!(!m.remove_element(0, 1));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(2, 0), Some(&3)); // later rows intact
    }

    #[test]
    fn to_dense_uses_option() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[0][0], Some(1));
        assert_eq!(d[0][1], None);
        assert_eq!(d[2][1], Some(4));
    }
}
