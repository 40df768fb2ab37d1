//! `apply` kernels: `T = F_u(A)` / `t = F_u(u)` — element-wise unary map
//! over the stored values, pattern preserved (Table II).

use crate::algebra::unary::UnaryOp;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// Map `f` over the stored values, chunked onto the shared pool when
/// the value count clears the cost model. The value array plays the
/// "rows" role: each chunk maps a contiguous span and the spans are
/// concatenated in order, so output is identical to the serial map.
fn map_vals<T: Scalar, U: Scalar, F: UnaryOp<T, U>>(vals: &[T], f: &F) -> Vec<U> {
    if let Some(plan) = crate::kernel::par::plan(vals.len(), vals.len()) {
        return crate::kernel::par::run_chunks(vals.len(), plan, |start, end| {
            vals[start..end]
                .iter()
                .map(|v| f.apply(v))
                .collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect();
    }
    vals.iter().map(|v| f.apply(v)).collect()
}

/// `T = F_u(A)`.
pub fn apply_matrix<T: Scalar, U: Scalar, F: UnaryOp<T, U>>(a: &Csr<T>, f: &F) -> Csr<U> {
    let vals = map_vals(a.vals(), f);
    Csr::from_parts(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        vals,
    )
}

/// `t = F_u(u)`.
pub fn apply_vector<T: Scalar, U: Scalar, F: UnaryOp<T, U>>(
    u: &SparseVec<T>,
    f: &F,
) -> SparseVec<U> {
    SparseVec::from_sorted_parts(u.size(), u.indices().to_vec(), map_vals(u.vals(), f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::unary::{unary_fn, Cast, Identity, Minv};

    #[test]
    fn apply_preserves_pattern() {
        let a = Csr::from_sorted_tuples(2, 2, vec![(0, 0, 2.0f32), (1, 1, 4.0)]);
        let inv = apply_matrix(&a, &Minv::<f32>::new());
        assert_eq!(inv.to_tuples(), vec![(0, 0, 0.5), (1, 1, 0.25)]);
    }

    #[test]
    fn identity_bool_cast_like_fig3_line41() {
        // GrB_apply(&sigmas[d], ..., GrB_IDENTITY_BOOL, frontier, ...):
        // int -> bool via the cast operator
        let frontier = Csr::from_sorted_tuples(2, 2, vec![(0, 1, 3i32), (1, 0, 1)]);
        let b: Csr<bool> = apply_matrix(&frontier, &Cast::<i32, bool>::new());
        assert_eq!(b.to_tuples(), vec![(0, 1, true), (1, 0, true)]);
        let same = apply_matrix(&b, &Identity::<bool>::new());
        assert_eq!(same, b);
    }

    #[test]
    fn apply_vector_with_closure() {
        let u = SparseVec::from_sorted_parts(4, vec![1, 3], vec![2, 5]);
        let sq = apply_vector(&u, &unary_fn(|x: &i32| x * x));
        assert_eq!(sq.to_tuples(), vec![(1, 4), (3, 25)]);
    }

    #[test]
    fn large_parallel_map() {
        let n = 10_000usize;
        let a = Csr::from_sorted_tuples(1, n, (0..n).map(|j| (0, j, j as i64)));
        let d = apply_matrix(&a, &unary_fn(|x: &i64| x * 2));
        assert_eq!(d.nvals(), n);
        assert_eq!(d.get(0, 777), Some(&1554));
    }
}
