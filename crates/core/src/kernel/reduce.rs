//! `reduce` kernels (Table II row "reduce (row)"): fold the stored
//! elements of each matrix row into a vector entry with a monoid, or fold
//! a whole collection to a scalar.
//!
//! A row with no stored elements produces **no** output entry (there is no
//! implied zero to return); scalar reduction of an empty collection yields
//! the monoid identity, matching the C specification of
//! `GrB_Matrix_reduce_TYPE`.

use crate::algebra::monoid::Monoid;
use crate::kernel::par;
use crate::kernel::util::map_rows;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// `t(i) = ⊕_j A(i,j)` over stored elements.
pub fn reduce_rows<T: Scalar, M: Monoid<T>>(a: &Csr<T>, monoid: &M) -> SparseVec<T> {
    let per_row = map_rows(a.nrows(), a.nvals(), |i| {
        let (_, vals) = a.row(i);
        let mut it = vals.iter();
        it.next().map(|first| {
            let mut acc = first.clone();
            for v in it {
                if monoid.is_terminal(&acc) {
                    break; // absorbing: further folding cannot change acc
                }
                acc = monoid.apply(&acc, v);
            }
            acc
        })
    });
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for (i, r) in per_row.into_iter().enumerate() {
        if let Some(v) = r {
            idx.push(i);
            vals.push(v);
        }
    }
    SparseVec::from_sorted_parts(a.nrows(), idx, vals)
}

/// `s = ⊕_{(i,j)} A(i,j)` over all stored elements; identity if empty.
pub fn reduce_matrix_scalar<T: Scalar, M: Monoid<T>>(a: &Csr<T>, monoid: &M) -> T {
    fold_all(a.vals(), monoid)
}

/// `s = ⊕_i u(i)` over all stored elements; identity if empty.
pub fn reduce_vector_scalar<T: Scalar, M: Monoid<T>>(u: &SparseVec<T>, monoid: &M) -> T {
    fold_all(u.vals(), monoid)
}

/// Fixed chunk width for the two-level fold. The chunking is part of the
/// *result definition*, not a scheduling detail: above the threshold the
/// serial path folds the same 4096-element chunks in the same order as
/// the parallel path, so the association — and therefore the float
/// result — is bitwise-identical at every worker count.
const FOLD_CHUNK: usize = 4096;

fn fold_all<T: Scalar, M: Monoid<T>>(vals: &[T], monoid: &M) -> T {
    let fold_chunk = |chunk: &[T]| -> T {
        let mut acc = monoid.identity();
        for v in chunk {
            if monoid.is_terminal(&acc) {
                break; // absorbing: the chunk fold is already decided
            }
            acc = monoid.apply(&acc, v);
        }
        acc
    };
    if vals.len() <= FOLD_CHUNK {
        return fold_chunk(vals);
    }
    let chunks = vals.len().div_ceil(FOLD_CHUNK);
    let partials: Vec<T> = match par::plan(chunks, vals.len()) {
        Some(mut plan) => {
            // one task per fixed-width chunk — the plan's own span
            // would merge chunks and change the association
            plan.chunks = chunks;
            plan.span = 1;
            par::run_chunks(chunks, plan, |start, end| {
                (start..end)
                    .map(|c| {
                        fold_chunk(&vals[c * FOLD_CHUNK..vals.len().min((c + 1) * FOLD_CHUNK)])
                    })
                    .collect::<Vec<T>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
        None => vals.chunks(FOLD_CHUNK).map(fold_chunk).collect(),
    };
    let mut acc = monoid.identity();
    for v in &partials {
        if monoid.is_terminal(&acc) {
            break;
        }
        acc = monoid.apply(&acc, v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::monoid::{MaxMonoid, MinMonoid, PlusMonoid};

    fn a() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . . . ]
        // [ 3 . 4 ]
        Csr::from_sorted_tuples(3, 3, vec![(0, 0, 1), (0, 1, 2), (2, 0, 3), (2, 2, 4)])
    }

    #[test]
    fn row_reduce_skips_empty_rows() {
        let w = reduce_rows(&a(), &PlusMonoid::<i32>::new());
        assert_eq!(w.to_tuples(), vec![(0, 3), (2, 7)]);
        assert_eq!(w.get(1), None); // empty row -> no entry, not zero
    }

    #[test]
    fn row_reduce_with_min_max() {
        let w = reduce_rows(&a(), &MinMonoid::<i32>::new());
        assert_eq!(w.to_tuples(), vec![(0, 1), (2, 3)]);
        let w = reduce_rows(&a(), &MaxMonoid::<i32>::new());
        assert_eq!(w.to_tuples(), vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn scalar_reduce() {
        assert_eq!(reduce_matrix_scalar(&a(), &PlusMonoid::<i32>::new()), 10);
        assert_eq!(reduce_matrix_scalar(&a(), &MaxMonoid::<i32>::new()), 4);
        let empty = Csr::<i32>::empty(3, 3);
        assert_eq!(reduce_matrix_scalar(&empty, &PlusMonoid::<i32>::new()), 0);
        assert_eq!(
            reduce_matrix_scalar(&empty, &MinMonoid::<i32>::new()),
            i32::MAX
        );
    }

    #[test]
    fn vector_scalar_reduce() {
        let u = SparseVec::from_sorted_parts(5, vec![1, 4], vec![7, 9]);
        assert_eq!(reduce_vector_scalar(&u, &PlusMonoid::<i32>::new()), 16);
        let e = SparseVec::<i32>::empty(5);
        assert_eq!(reduce_vector_scalar(&e, &PlusMonoid::<i32>::new()), 0);
    }

    #[test]
    fn parallel_reduce_with_nan_matches_sequential() {
        // Regression: Min/Max were not commutative for NaN, so the
        // chunked tree reduction (len >= 4096) could disagree with the
        // sequential fold depending on where the NaNs landed in the
        // chunking. With fmin/fmax semantics the result is
        // schedule-independent.
        let n = 20_000usize;
        let vals: Vec<f64> = (0..n)
            .map(|j| {
                if j % 977 == 0 {
                    f64::NAN
                } else {
                    (j as f64) * 0.25 - 1000.0
                }
            })
            .collect();
        let m = Csr::from_sorted_tuples(1, n, (0..n).map(|j| (0, j, vals[j])));

        // ground truth via a sequential fold over the same operator
        let min_op = crate::algebra::binary::Min::<f64>::new();
        let max_op = crate::algebra::binary::Max::<f64>::new();
        let seq_min = vals.iter().fold(f64::INFINITY, |a, v| {
            crate::algebra::binary::BinaryOp::apply(&min_op, &a, v)
        });
        let seq_max = vals.iter().fold(f64::NEG_INFINITY, |a, v| {
            crate::algebra::binary::BinaryOp::apply(&max_op, &a, v)
        });

        let par_min = reduce_matrix_scalar(&m, &MinMonoid::<f64>::new());
        let par_max = reduce_matrix_scalar(&m, &MaxMonoid::<f64>::new());
        assert_eq!(par_min, seq_min);
        assert_eq!(par_max, seq_max);
        assert!(!par_min.is_nan() && !par_max.is_nan());

        // An all-NaN collection folds from the monoid identity (±∞), and
        // under fmin/fmax the NaNs lose to it — the identity comes back,
        // identically under any schedule (the point of the fix).
        let all_nan = Csr::from_sorted_tuples(1, 5000, (0..5000).map(|j| (0, j, f64::NAN)));
        assert_eq!(
            reduce_matrix_scalar(&all_nan, &MinMonoid::<f64>::new()),
            f64::INFINITY
        );
        assert_eq!(
            reduce_matrix_scalar(&all_nan, &MaxMonoid::<f64>::new()),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn large_parallel_reduce_matches() {
        let n = 20_000usize;
        let m = Csr::from_sorted_tuples(1, n, (0..n).map(|j| (0, j, 1i64)));
        assert_eq!(
            reduce_matrix_scalar(&m, &PlusMonoid::<i64>::new()),
            n as i64
        );
    }
}
