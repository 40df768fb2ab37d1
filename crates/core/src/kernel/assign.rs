//! `assign` kernels (Table II): `Z = C` with the subregion
//! `C(rows, cols)` overwritten (or accumulated) from a source collection
//! or a single scalar. The result is the pre-mask internal object **Z**;
//! masking/replace are applied afterwards by the shared write stage (the
//! assign mask covers the *whole* output, per the C specification).
//!
//! Semantics inside the region, mirroring `GrB_assign`:
//! * without an accumulator, the region becomes exactly the source —
//!   existing `C` elements at region positions the source does not store
//!   are **deleted**;
//! * with an accumulator, region positions stored by both are combined,
//!   and positions stored by only one pass through.
//!
//! Index lists arrive resolved, bounds-checked, and duplicate-free (the
//! operation layer rejects duplicate output indices, where the C spec
//! leaves the outcome undefined). Only an explicit list can be out of
//! order, so only such a list is ever sorted here.

use crate::accum::Accumulate;
use crate::index::Index;
use crate::kernel::util::{emit_rows, stateless};
use crate::mask::Pattern;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;
use std::borrow::Cow;

/// `list` in ascending order: borrowed when it already is (every
/// `GrB_ALL` or range selection), sorted into a copy otherwise.
fn ascending(list: &[Index]) -> Cow<'_, [Index]> {
    if list.is_sorted() {
        Cow::Borrowed(list)
    } else {
        let mut sorted = list.to_vec();
        sorted.sort_unstable();
        Cow::Owned(sorted)
    }
}

/// Merge one output row into `out_c`/`out_v`: `c_*` is the old content,
/// `new` the region's new content for this row (ascending target
/// column), `in_region(j)` tells whether column `j` belongs to the
/// assigned region.
fn assign_row<T: Scalar, Ac: Accumulate<T>>(
    c_cols: &[Index],
    c_vals: &[T],
    new: impl Iterator<Item = (Index, T)>,
    in_region: impl Fn(Index) -> bool,
    accum: &Ac,
    out_c: &mut Vec<Index>,
    out_v: &mut Vec<T>,
) {
    let is_accum = accum.is_accum();
    let mut new = new.peekable();
    let mut ci = 0usize;
    loop {
        let take_c = match (c_cols.get(ci), new.peek()) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(&cj), Some(&(nj, _))) => {
                if cj == nj {
                    let (_, nv) = new.next().expect("peeked");
                    out_c.push(cj);
                    out_v.push(if is_accum {
                        accum.combine(&c_vals[ci], &nv)
                    } else {
                        nv
                    });
                    ci += 1;
                    continue;
                }
                cj < nj
            }
        };
        if take_c {
            let cj = c_cols[ci];
            if !in_region(cj) || is_accum {
                out_c.push(cj);
                out_v.push(c_vals[ci].clone());
            }
            ci += 1;
        } else {
            let (nj, nv) = new.next().expect("peeked");
            out_c.push(nj);
            out_v.push(nv);
        }
    }
}

/// `Z = C; Z(rows, cols) ⊙= A`.
pub fn assign_matrix<T: Scalar, Ac: Accumulate<T>>(
    c: &Csr<T>,
    a: &Csr<T>,
    rows: &[Index],
    cols: &[Index],
    accum: &Ac,
) -> Csr<T> {
    debug_assert_eq!(a.nrows(), rows.len());
    debug_assert_eq!(a.ncols(), cols.len());
    // target row -> source row
    let mut row_src: Vec<Option<Index>> = vec![None; c.nrows()];
    for (k, &i) in rows.iter().enumerate() {
        row_src[i] = Some(k);
    }
    let mut col_region = vec![false; c.ncols()];
    for &j in cols {
        col_region[j] = true;
    }
    // source col l -> target col cols[l], sorted by target for merge order
    let mut col_map: Vec<(Index, Index)> = cols.iter().copied().enumerate().collect(); // (l, tj)
    if !cols.is_sorted() {
        col_map.sort_unstable_by_key(|&(_, tj)| tj);
    }

    emit_rows(
        c.nrows(),
        c.ncols(),
        c.nvals() + a.nvals(),
        stateless,
        |_, i, out_c, out_v| {
            let (cc, cv) = c.row(i);
            match row_src[i] {
                None => {
                    out_c.extend_from_slice(cc);
                    out_v.extend_from_slice(cv);
                }
                Some(k) => {
                    let new = col_map
                        .iter()
                        .filter_map(|&(l, tj)| a.get(k, l).map(|v| (tj, v.clone())));
                    assign_row(cc, cv, new, |j| col_region[j], accum, out_c, out_v);
                }
            }
        },
    )
}

/// `Z = C; Z(rows, cols) ⊙= value` — the scalar-fill variant used at
/// Fig. 3 lines 61 and 77 (`GrB_assign(&bcu, …, 1.0f, GrB_ALL, …)`).
/// Every region position receives the scalar (the region pattern is
/// dense), so an old element is only ever dropped where the fill
/// overwrites it: no region test is needed.
pub fn assign_scalar_matrix<T: Scalar, Ac: Accumulate<T>>(
    c: &Csr<T>,
    value: &T,
    rows: &[Index],
    cols: &[Index],
    accum: &Ac,
) -> Csr<T> {
    let mut row_region = vec![false; c.nrows()];
    for &i in rows {
        row_region[i] = true;
    }
    let sorted_cols = ascending(cols);

    let fill = rows.len().saturating_mul(cols.len());
    emit_rows(
        c.nrows(),
        c.ncols(),
        c.nvals().saturating_add(fill),
        stateless,
        |_, i, out_c, out_v| {
            let (cc, cv) = c.row(i);
            if !row_region[i] {
                out_c.extend_from_slice(cc);
                out_v.extend_from_slice(cv);
                return;
            }
            let new = sorted_cols.iter().map(|&tj| (tj, value.clone()));
            assign_row(cc, cv, new, |_| false, accum, out_c, out_v);
        },
    )
}

/// `C<M> = value` over the whole object without an accumulator, for one
/// matrix row or a whole vector, given the positions a non-complemented
/// mask admits there. The write stage reads Z only at those positions, so
/// they take `value` directly and the dense fill is never built:
/// O(|admitted| + |C row|). Elements of C outside the mask survive
/// unless `replace`. The row is appended to `out_c`/`out_v`.
pub fn fill_admitted<T: Clone>(
    c_cols: &[Index],
    c_vals: &[T],
    admitted: &[Index],
    value: &T,
    replace: bool,
    out_c: &mut Vec<Index>,
    out_v: &mut Vec<T>,
) {
    if replace {
        out_c.extend_from_slice(admitted);
        out_v.resize(out_v.len() + admitted.len(), value.clone());
        return;
    }
    let (mut ci, mut mi) = (0usize, 0usize);
    loop {
        let keep_c = match (c_cols.get(ci), admitted.get(mi)) {
            (None, None) => break,
            (Some(cj), Some(mj)) => cj < mj,
            (cj, _) => cj.is_some(),
        };
        if keep_c {
            out_c.push(c_cols[ci]);
            out_v.push(c_vals[ci].clone());
            ci += 1;
        } else {
            // an admitted position overwrites the element C held there
            if c_cols.get(ci) == admitted.get(mi) {
                ci += 1;
            }
            out_c.push(admitted[mi]);
            out_v.push(value.clone());
            mi += 1;
        }
    }
}

/// [`fill_admitted`] over every row of a matrix and its mask pattern.
pub fn fill_admitted_matrix<T: Scalar>(
    c: &Csr<T>,
    pattern: &Pattern,
    value: &T,
    replace: bool,
) -> Csr<T> {
    emit_rows(
        c.nrows(),
        c.ncols(),
        c.nvals() + pattern.nvals(),
        stateless,
        |_, i, out_c, out_v| {
            let (cc, cv) = c.row(i);
            fill_admitted(cc, cv, pattern.row(i).0, value, replace, out_c, out_v);
        },
    )
}

/// `z = w; z(indices) ⊙= u`.
pub fn assign_vector<T: Scalar, Ac: Accumulate<T>>(
    w: &SparseVec<T>,
    u: &SparseVec<T>,
    indices: &[Index],
    accum: &Ac,
) -> SparseVec<T> {
    debug_assert_eq!(u.size(), indices.len());
    let mut region = vec![false; w.size()];
    for &i in indices {
        region[i] = true;
    }
    let mut new_pairs: Vec<(Index, T)> = u
        .indices()
        .iter()
        .zip(u.vals())
        .map(|(&k, v)| (indices[k], v.clone()))
        .collect();
    if !indices.is_sorted() {
        new_pairs.sort_unstable_by_key(|&(ti, _)| ti);
    }
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    let new = new_pairs.into_iter();
    assign_row(
        w.indices(),
        w.vals(),
        new,
        |i| region[i],
        accum,
        &mut idx,
        &mut vals,
    );
    SparseVec::from_sorted_parts(w.size(), idx, vals)
}

/// `z = w; z(indices) ⊙= value` (no region test, as in
/// [`assign_scalar_matrix`]).
pub fn assign_scalar_vector<T: Scalar, Ac: Accumulate<T>>(
    w: &SparseVec<T>,
    value: &T,
    indices: &[Index],
    accum: &Ac,
) -> SparseVec<T> {
    let sorted = ascending(indices);
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    let new = sorted.iter().map(|&ti| (ti, value.clone()));
    assign_row(
        w.indices(),
        w.vals(),
        new,
        |_| false,
        accum,
        &mut idx,
        &mut vals,
    );
    SparseVec::from_sorted_parts(w.size(), idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;

    fn c() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 . ]
        // [ 4 . 5 ]
        Csr::from_sorted_tuples(
            3,
            3,
            vec![(0, 0, 1), (0, 1, 2), (1, 1, 3), (2, 0, 4), (2, 2, 5)],
        )
    }

    #[test]
    fn assign_replaces_region_exactly() {
        // assign A into region rows {0,1} x cols {0,1}
        let a = Csr::from_sorted_tuples(2, 2, vec![(0, 0, 10)]);
        let z = assign_matrix(&c(), &a, &[0, 1], &[0, 1], &NoAccum);
        // (0,0) -> 10; (0,1) was 2, region but A lacks (0,1) -> deleted;
        // (1,1) was 3, region but A lacks (1,1) -> deleted;
        // row 2 untouched
        assert_eq!(z.to_tuples(), vec![(0, 0, 10), (2, 0, 4), (2, 2, 5)]);
    }

    #[test]
    fn assign_with_accum_keeps_region_survivors() {
        let a = Csr::from_sorted_tuples(2, 2, vec![(0, 0, 10)]);
        let z = assign_matrix(&c(), &a, &[0, 1], &[0, 1], &Accum(Plus::<i32>::new()));
        assert_eq!(
            z.to_tuples(),
            vec![(0, 0, 11), (0, 1, 2), (1, 1, 3), (2, 0, 4), (2, 2, 5)]
        );
    }

    #[test]
    fn assign_with_permuted_indices() {
        // target rows [2,0], cols [1]: A(0,0) -> C(2,1); A(1,0) -> C(0,1)
        let a = Csr::from_sorted_tuples(2, 1, vec![(0, 0, 70), (1, 0, 90)]);
        let z = assign_matrix(&c(), &a, &[2, 0], &[1], &NoAccum);
        assert_eq!(z.get(2, 1), Some(&70));
        assert_eq!(z.get(0, 1), Some(&90));
        // out-of-region entries untouched
        assert_eq!(z.get(0, 0), Some(&1));
        assert_eq!(z.get(1, 1), Some(&3)); // row 1 not in region
    }

    #[test]
    fn scalar_fill_like_fig3_line61() {
        // GrB_assign(&bcu, ..., 1.0f, GrB_ALL, n, GrB_ALL, nsver, ...)
        let empty = Csr::<i32>::empty(2, 3);
        let all_r: Vec<Index> = (0..2).collect();
        let all_c: Vec<Index> = (0..3).collect();
        let z = assign_scalar_matrix(&empty, &1, &all_r, &all_c, &NoAccum);
        assert_eq!(z.nvals(), 6);
        assert!(z.iter().all(|(_, _, v)| *v == 1));
    }

    #[test]
    fn scalar_fill_subregion_with_accum() {
        let z = assign_scalar_matrix(&c(), &100, &[0], &[0, 2], &Accum(Plus::<i32>::new()));
        assert_eq!(z.get(0, 0), Some(&101));
        assert_eq!(z.get(0, 2), Some(&100)); // was absent: passes through
        assert_eq!(z.get(0, 1), Some(&2)); // not in col region
    }

    #[test]
    fn vector_assign() {
        let w = SparseVec::from_sorted_parts(5, vec![0, 2, 4], vec![1, 2, 3]);
        let u = SparseVec::from_sorted_parts(2, vec![0], vec![50]);
        // region = indices {2, 3}: w(2) region-deleted unless accum, u(0)->w(2)
        let z = assign_vector(&w, &u, &[2, 3], &NoAccum);
        assert_eq!(z.to_tuples(), vec![(0, 1), (2, 50), (4, 3)]);
        let z = assign_vector(&w, &u, &[3, 2], &NoAccum);
        // u(0)->w(3), u(1) absent so w(2) deleted
        assert_eq!(z.to_tuples(), vec![(0, 1), (3, 50), (4, 3)]);
    }

    #[test]
    fn vector_scalar_fill() {
        // Fig. 3 line 77: fill delta with -nsver
        let w = SparseVec::<f32>::empty(4);
        let all: Vec<Index> = (0..4).collect();
        let z = assign_scalar_vector(&w, &-3.0f32, &all, &NoAccum);
        assert_eq!(z.nvals(), 4);
        assert!(z.vals().iter().all(|&v| v == -3.0));
    }
}
