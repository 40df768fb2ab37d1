//! The dense-accumulator `vxm` kernel (`w^T = v^T ⊕.⊗ A`, Table II
//! row 3): scatter each stored `v(i)` through row `A(i,:)` into a dense
//! accumulator of size `ncols`. It is the costed `Direction::Dense`
//! candidate of the SpMSpV dispatcher ([`crate::kernel::spmspv`]), which
//! owns every other matrix–vector strategy, `mxv` included.

use crate::algebra::binary::BinaryOp;
use crate::algebra::semiring::Semiring;
use crate::index::Index;
use crate::mask::MaskVec;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// `t^T = v^T ⊕.⊗ A` (push): `t(j) = ⊕_{i ∈ ind(v) ∩ ind(A(:,j))}
/// v(i) ⊗ A(i,j)`, restricted to mask-admitted output indices.
pub fn vxm<D1, D2, D3, S>(sr: &S, v: &SparseVec<D1>, a: &Csr<D2>, mask: &MaskVec) -> SparseVec<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(v.size(), a.nrows());
    let add = sr.add();
    let mul = sr.mul();
    let ncols = a.ncols();
    let mut acc: Vec<Option<D3>> = vec![None; ncols];
    let mut touched: Vec<Index> = Vec::new();
    for (i, vi) in v.iter() {
        let (ac, av) = a.row(i);
        for (j, aij) in ac.iter().zip(av) {
            if !mask.admits(*j) {
                continue;
            }
            let prod = mul.apply(vi, aij);
            match &mut acc[*j] {
                Some(x) => *x = add.apply(x, &prod),
                slot @ None => {
                    *slot = Some(prod);
                    touched.push(*j);
                }
            }
        }
    }
    touched.sort_unstable();
    let mut idx = Vec::with_capacity(touched.len());
    let mut vals = Vec::with_capacity(touched.len());
    for j in touched {
        idx.push(j);
        vals.push(acc[j].take().expect("touched slot"));
    }
    SparseVec::from_sorted_parts(ncols, idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semiring::{lor_land, min_plus, plus_times};
    use crate::storage::vec::SparseVec;

    fn a() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 4 ]
        // [ 5 . 6 ]
        Csr::from_sorted_tuples(
            3,
            3,
            vec![
                (0, 0, 1),
                (0, 1, 2),
                (1, 1, 3),
                (1, 2, 4),
                (2, 0, 5),
                (2, 2, 6),
            ],
        )
    }

    #[test]
    fn vxm_plus_times() {
        let v = SparseVec::from_dense(&[10, 20, 30]);
        let w = vxm(&plus_times::<i32>(), &v, &a(), &MaskVec::All);
        assert_eq!(w.to_tuples(), vec![(0, 160), (1, 80), (2, 260)]);
    }

    #[test]
    fn vxm_push_from_sparse_frontier() {
        // BFS-style frontier push over lor_land
        let adj = Csr::from_sorted_tuples(4, 4, vec![(0, 1, true), (0, 2, true), (2, 3, true)]);
        let frontier = SparseVec::from_sorted_parts(4, vec![0], vec![true]);
        let next = vxm(&lor_land(), &frontier, &adj, &MaskVec::All);
        assert_eq!(next.to_tuples(), vec![(1, true), (2, true)]);
    }

    #[test]
    fn masked_vxm_skips_columns() {
        let v = SparseVec::from_dense(&[10, 20, 30]);
        let msrc = SparseVec::from_sorted_parts(3, vec![0], vec![true]);
        let mask = MaskVec::from_vec(&msrc, false, true); // complement: skip col 0
        let w = vxm(&plus_times::<i32>(), &v, &a(), &mask);
        assert_eq!(w.get(0), None);
        assert!(w.get(1).is_some());
    }

    #[test]
    fn min_plus_relaxation_step() {
        // one Bellman-Ford relaxation: dist' = dist min.+ A
        let adj = Csr::from_sorted_tuples(3, 3, vec![(0, 1, 2i64), (0, 2, 10), (1, 2, 3)]);
        let dist = SparseVec::from_sorted_parts(3, vec![0], vec![0i64]);
        let relaxed = vxm(&min_plus::<i64>(), &dist, &adj, &MaskVec::All);
        assert_eq!(relaxed.to_tuples(), vec![(1, 2), (2, 10)]);
    }

    #[test]
    fn empty_vector_gives_empty_result() {
        let v = SparseVec::<i32>::empty(3);
        assert_eq!(
            vxm(&plus_times::<i32>(), &v, &a(), &MaskVec::All).nvals(),
            0
        );
    }
}
