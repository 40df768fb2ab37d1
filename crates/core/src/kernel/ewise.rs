//! Element-wise kernels: the set-union (`eWiseAdd`) and set-intersection
//! (`eWiseMult`) merges of Table II.
//!
//! `eWiseAdd`'s ⊕ is applied only where *both* operands store an element;
//! elements stored in exactly one operand pass through unchanged — no
//! implied zero is ever fabricated (paper §II's set-notation semantics).
//! `eWiseMult`'s ⊗ is applied on the intersection of the stored patterns,
//! which is why it may take operands of different domains.

use crate::algebra::binary::BinaryOp;
use crate::index::Index;
use crate::kernel::util::{emit_rows, stateless};
use crate::mask::MaskCsr;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// Union-merge two sorted index/value slices: ⊕ on matches, pass-through
/// otherwise. The shared primitive behind `eWiseAdd` and accumulation.
pub fn union_merge<T: Scalar, F: BinaryOp<T, T, T>>(
    a_idx: &[Index],
    a_vals: &[T],
    b_idx: &[Index],
    b_vals: &[T],
    add: &F,
    out_idx: &mut Vec<Index>,
    out_vals: &mut Vec<T>,
) {
    let (mut i, mut j) = (0, 0);
    while i < a_idx.len() && j < b_idx.len() {
        match a_idx[i].cmp(&b_idx[j]) {
            std::cmp::Ordering::Less => {
                out_idx.push(a_idx[i]);
                out_vals.push(a_vals[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out_idx.push(b_idx[j]);
                out_vals.push(b_vals[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out_idx.push(a_idx[i]);
                out_vals.push(add.apply(&a_vals[i], &b_vals[j]));
                i += 1;
                j += 1;
            }
        }
    }
    // at most one tail is left — the whole of a side when the other is
    // empty — and it is copied as a slice
    out_idx.extend_from_slice(&a_idx[i..]);
    out_vals.extend_from_slice(&a_vals[i..]);
    out_idx.extend_from_slice(&b_idx[j..]);
    out_vals.extend_from_slice(&b_vals[j..]);
}

/// [`union_merge`] when `full` stores every index: copy its values and
/// fold each of `other`'s entries into its position as
/// `fold(full(i), other(i))`, the one ⊕ the merge would apply there.
pub(crate) fn union_full<T: Scalar>(
    full: &SparseVec<T>,
    other: &SparseVec<T>,
    fold: impl Fn(&T, &T) -> T,
) -> SparseVec<T> {
    debug_assert!(full.is_full() && full.size() == other.size());
    let mut vals = full.vals().to_vec();
    for (i, x) in other.iter() {
        vals[i] = fold(&vals[i], x);
    }
    SparseVec::from_sorted_parts(full.size(), full.indices().to_vec(), vals)
}

/// Intersection-merge two sorted index/value slices: ⊗ on the matches
/// `keep` admits. `keep` is asked in ascending index order.
#[allow(clippy::too_many_arguments)]
pub fn intersect_merge<A, B, C, F>(
    a_idx: &[Index],
    a_vals: &[A],
    b_idx: &[Index],
    b_vals: &[B],
    mul: &F,
    mut keep: impl FnMut(Index) -> bool,
    out_idx: &mut Vec<Index>,
    out_vals: &mut Vec<C>,
) where
    A: Scalar,
    B: Scalar,
    C: Scalar,
    F: BinaryOp<A, B, C>,
{
    let (mut i, mut j) = (0, 0);
    while i < a_idx.len() && j < b_idx.len() {
        match a_idx[i].cmp(&b_idx[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if keep(a_idx[i]) {
                    out_idx.push(a_idx[i]);
                    out_vals.push(mul.apply(&a_vals[i], &b_vals[j]));
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// `T = A ⊕ B` on matrices (the internal result of `eWiseAdd`, before
/// accumulation and masking).
pub fn ewise_add_matrix<T: Scalar, F: BinaryOp<T, T, T>>(
    a: &Csr<T>,
    b: &Csr<T>,
    add: &F,
) -> Csr<T> {
    debug_assert_eq!(a.nrows(), b.nrows());
    debug_assert_eq!(a.ncols(), b.ncols());
    emit_rows(
        a.nrows(),
        a.ncols(),
        a.nvals() + b.nvals(),
        stateless,
        |_, i, cols, vals| {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            union_merge(ac, av, bc, bv, add, cols, vals);
        },
    )
}

/// `T = A ⊗ B` on matrices (the internal result of `eWiseMult`), computed
/// only where `mask` admits. The write stage never reads `T` anywhere
/// else, so this is the operation's `T` for any mask; `MaskCsr::All`
/// gives the whole intersection.
///
/// A row the mask admits nothing in is skipped. A non-complemented mask
/// row drives the walk from its own columns, each sought in `A(i,:)` and
/// `B(i,:)`; a complemented one filters the merge with a monotone cursor.
pub fn ewise_mult_matrix<A, B, C, F>(a: &Csr<A>, b: &Csr<B>, mask: &MaskCsr, mul: &F) -> Csr<C>
where
    A: Scalar,
    B: Scalar,
    C: Scalar,
    F: BinaryOp<A, B, C>,
{
    debug_assert_eq!(a.nrows(), b.nrows());
    debug_assert_eq!(a.ncols(), b.ncols());
    emit_rows(
        a.nrows(),
        a.ncols(),
        a.nvals() + b.nvals(),
        stateless,
        |_, i, cols, vals| {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let mrow = mask.row(i);
            match mrow.raw() {
                (Some(admitted), false) => {
                    let (mut p, mut q) = (0, 0);
                    for &j in admitted {
                        p += ac[p..].partition_point(|&x| x < j);
                        q += bc[q..].partition_point(|&x| x < j);
                        if p == ac.len() || q == bc.len() {
                            break;
                        }
                        if ac[p] == j && bc[q] == j {
                            cols.push(j);
                            vals.push(mul.apply(&av[p], &bv[q]));
                        }
                    }
                }
                _ => {
                    let mut cur = mrow.cursor();
                    intersect_merge(ac, av, bc, bv, mul, |j| cur.admits(j), cols, vals);
                }
            }
        },
    )
}

/// `t = u ⊕ v` on vectors. A full operand is indexed by position
/// (`union_full`), with ⊕'s operands in the merge's order.
pub fn ewise_add_vector<T: Scalar, F: BinaryOp<T, T, T>>(
    u: &SparseVec<T>,
    v: &SparseVec<T>,
    add: &F,
) -> SparseVec<T> {
    debug_assert_eq!(u.size(), v.size());
    if u.is_full() {
        return union_full(u, v, |x, y| add.apply(x, y));
    }
    if v.is_full() {
        return union_full(v, u, |y, x| add.apply(x, y));
    }
    let mut idx = Vec::with_capacity(u.nvals() + v.nvals());
    let mut vals = Vec::with_capacity(u.nvals() + v.nvals());
    union_merge(
        u.indices(),
        u.vals(),
        v.indices(),
        v.vals(),
        add,
        &mut idx,
        &mut vals,
    );
    SparseVec::from_sorted_parts(u.size(), idx, vals)
}

/// `t = u ⊗ v` on vectors. A full operand is gathered by position along
/// the other one's pattern.
pub fn ewise_mult_vector<A, B, C, F>(u: &SparseVec<A>, v: &SparseVec<B>, mul: &F) -> SparseVec<C>
where
    A: Scalar,
    B: Scalar,
    C: Scalar,
    F: BinaryOp<A, B, C>,
{
    debug_assert_eq!(u.size(), v.size());
    if u.is_full() {
        let vals = v.iter().map(|(i, y)| mul.apply(&u.vals()[i], y)).collect();
        return SparseVec::from_sorted_parts(u.size(), v.indices().to_vec(), vals);
    }
    if v.is_full() {
        let vals = u.iter().map(|(i, x)| mul.apply(x, &v.vals()[i])).collect();
        return SparseVec::from_sorted_parts(u.size(), u.indices().to_vec(), vals);
    }
    let mut idx = Vec::with_capacity(u.nvals().min(v.nvals()));
    let mut vals = Vec::with_capacity(u.nvals().min(v.nvals()));
    intersect_merge(
        u.indices(),
        u.vals(),
        v.indices(),
        v.vals(),
        mul,
        |_| true,
        &mut idx,
        &mut vals,
    );
    SparseVec::from_sorted_parts(u.size(), idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::binary::{Plus, Times};

    fn a() -> Csr<i32> {
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1), (0, 2, 2), (1, 1, 3)])
    }

    fn b() -> Csr<i32> {
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 10), (0, 1, 20), (1, 1, 30)])
    }

    #[test]
    fn add_is_union_with_passthrough() {
        let c = ewise_add_matrix(&a(), &b(), &Plus::new());
        assert_eq!(
            c.to_tuples(),
            vec![(0, 0, 11), (0, 1, 20), (0, 2, 2), (1, 1, 33)]
        );
    }

    #[test]
    fn mult_is_intersection_only() {
        let c = ewise_mult_matrix(&a(), &b(), &MaskCsr::All, &Times::new());
        assert_eq!(c.to_tuples(), vec![(0, 0, 10), (1, 1, 90)]);
    }

    #[test]
    fn mult_is_computed_only_where_the_mask_admits() {
        // the intersection is (0,0) -> 10 and (1,1) -> 90; row 1 of the
        // plain mask admits nothing
        let m = Csr::from_sorted_tuples(2, 3, vec![(0, 0, true), (0, 2, true)]);
        let mult = |complement| {
            let mask = MaskCsr::from_csr(&m, false, complement);
            ewise_mult_matrix(&a(), &b(), &mask, &Times::new()).to_tuples()
        };
        assert_eq!(mult(false), vec![(0, 0, 10)]);
        assert_eq!(mult(true), vec![(1, 1, 90)]);
    }

    #[test]
    fn mult_mixed_domains() {
        use crate::algebra::binary::binary_fn;
        let flags = Csr::from_sorted_tuples(2, 3, vec![(0, 0, true), (1, 1, false)]);
        let gate = binary_fn(|x: &i32, keep: &bool| if *keep { *x as f64 } else { 0.0 });
        let c: Csr<f64> = ewise_mult_matrix(&a(), &flags, &MaskCsr::All, &gate);
        assert_eq!(c.to_tuples(), vec![(0, 0, 1.0), (1, 1, 0.0)]);
    }

    #[test]
    fn add_with_empty_operand_is_identity_copy() {
        let e = Csr::<i32>::empty(2, 3);
        let c = ewise_add_matrix(&a(), &e, &Plus::new());
        assert_eq!(c, a());
        let c = ewise_add_matrix(&e, &a(), &Plus::new());
        assert_eq!(c, a());
    }

    #[test]
    fn mult_with_empty_operand_is_empty() {
        let e = Csr::<i32>::empty(2, 3);
        let c = ewise_mult_matrix(&a(), &e, &MaskCsr::All, &Times::new());
        assert_eq!(c.nvals(), 0);
    }

    #[test]
    fn vector_union_and_intersection() {
        let u = SparseVec::from_sorted_parts(5, vec![0, 2, 4], vec![1, 2, 3]);
        let v = SparseVec::from_sorted_parts(5, vec![2, 3], vec![10, 20]);
        let s = ewise_add_vector(&u, &v, &Plus::new());
        assert_eq!(s.to_tuples(), vec![(0, 1), (2, 12), (3, 20), (4, 3)]);
        let p = ewise_mult_vector(&u, &v, &Times::new());
        assert_eq!(p.to_tuples(), vec![(2, 20)]);
    }

    #[test]
    fn full_operands_match_the_merges_in_operand_order() {
        use crate::algebra::binary::Minus;
        let full = SparseVec::from_dense(&[1, 2, 3, 4, 5]);
        let part = SparseVec::from_sorted_parts(5, vec![1, 4], vec![10, 20]);
        let minus = Minus::<i32>::new();
        assert_eq!(
            ewise_add_vector(&full, &part, &minus).to_tuples(),
            vec![(0, 1), (1, -8), (2, 3), (3, 4), (4, -15)]
        );
        assert_eq!(
            ewise_add_vector(&part, &full, &minus).to_tuples(),
            vec![(0, 1), (1, 8), (2, 3), (3, 4), (4, 15)]
        );
        let p = ewise_mult_vector(&full, &part, &minus);
        assert_eq!(p.to_tuples(), vec![(1, -8), (4, -15)]);
        let p = ewise_mult_vector(&part, &full, &minus);
        assert_eq!(p.to_tuples(), vec![(1, 8), (4, 15)]);
    }

    #[test]
    fn large_parallel_merge_matches_sequential_semantics() {
        let n = 1000;
        let a = Csr::from_sorted_tuples(n, n, (0..n).map(|i| (i, i, 1i64)));
        let b = Csr::from_sorted_tuples(n, n, (0..n).map(|i| (i, (i + 1) % n, 2i64)));
        let c = ewise_add_matrix(&a, &b, &Plus::new());
        assert_eq!(c.nvals(), 2 * n);
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(0, 1), Some(&2));
    }
}
