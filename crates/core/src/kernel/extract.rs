//! `extract` kernels (Table II): `T = A(i, j)` — gather a subcollection
//! selected by index lists. Index lists arrive already resolved and
//! bounds-checked by the operation layer; duplicates are allowed (the
//! same source element may land in several output positions).

use crate::index::Index;
use crate::kernel::util::emit_rows;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// `T(k, l) = A(rows[k], cols[l])` for stored elements.
///
/// Gathers through an inverse column map built once per call (source
/// column → the output positions that select it), so each output row
/// costs its source row plus what it emits — never a scan of `cols`.
pub fn extract_matrix<T: Scalar>(a: &Csr<T>, rows: &[Index], cols: &[Index]) -> Csr<T> {
    let identity_cols = cols.len() == a.ncols() && cols.iter().enumerate().all(|(l, &j)| l == j);
    // CSR-shaped inverse map: source column `j` lands at output positions
    // `positions[start[j]..start[j + 1]]`, ascending. A duplicated column
    // owns several positions; a permutation only reorders them.
    let (start, positions) = if identity_cols {
        (Vec::new(), Vec::new())
    } else {
        let mut start = vec![0usize; a.ncols() + 1];
        for &j in cols {
            start[j + 1] += 1;
        }
        for j in 0..a.ncols() {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut positions = vec![0; cols.len()];
        for (l, &j) in cols.iter().enumerate() {
            positions[next[j]] = l;
            next[j] += 1;
        }
        (start, positions)
    };
    // With `cols` non-decreasing, walking a source row in column order
    // already emits ascending output positions.
    let ordered = cols.windows(2).all(|w| w[0] <= w[1]);
    emit_rows(
        rows.len(),
        cols.len(),
        a.nvals(),
        Vec::<(Index, T)>::new,
        |out, k, out_c, out_v| {
            let (src_cols, src_vals) = a.row(rows[k]);
            if identity_cols {
                out_c.extend_from_slice(src_cols);
                out_v.extend_from_slice(src_vals);
                return;
            }
            out.clear();
            for (&j, v) in src_cols.iter().zip(src_vals) {
                for &l in &positions[start[j]..start[j + 1]] {
                    out.push((l, v.clone()));
                }
            }
            if !ordered {
                out.sort_unstable_by_key(|&(l, _)| l);
            }
            for (l, v) in out.drain(..) {
                out_c.push(l);
                out_v.push(v);
            }
        },
    )
}

/// `t(k) = u(indices[k])` for stored elements.
pub fn extract_vector<T: Scalar>(u: &SparseVec<T>, indices: &[Index]) -> SparseVec<T> {
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for (k, &i) in indices.iter().enumerate() {
        if let Some(v) = u.get(i) {
            idx.push(k);
            vals.push(v.clone());
        }
    }
    SparseVec::from_sorted_parts(indices.len(), idx, vals)
}

/// Column extract (`GrB_Col_extract`): `t(k) = A(rows[k], j)`.
pub fn extract_matrix_col<T: Scalar>(a: &Csr<T>, rows: &[Index], j: Index) -> SparseVec<T> {
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for (k, &i) in rows.iter().enumerate() {
        if let Some(v) = a.get(i, j) {
            idx.push(k);
            vals.push(v.clone());
        }
    }
    SparseVec::from_sorted_parts(rows.len(), idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn extract_submatrix() {
        let t = extract_matrix(&a(), &[0, 2], &[0, 2]);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.to_tuples(), vec![(0, 0, 1), (1, 0, 5), (1, 1, 6)]);
    }

    #[test]
    fn extract_permutes_and_duplicates() {
        let t = extract_matrix(&a(), &[1, 1], &[2, 1, 2]);
        // both output rows are source row 1: [., 3, 4] gathered as cols [2,1,2]
        assert_eq!(
            t.to_tuples(),
            vec![
                (0, 0, 4),
                (0, 1, 3),
                (0, 2, 4),
                (1, 0, 4),
                (1, 1, 3),
                (1, 2, 4)
            ]
        );
    }

    #[test]
    fn extract_identity_cols_fast_path() {
        let t = extract_matrix(&a(), &[2, 0], &[0, 1, 2]);
        assert_eq!(
            t.to_tuples(),
            vec![(0, 0, 5), (0, 2, 6), (1, 0, 1), (1, 1, 2)]
        );
    }

    #[test]
    fn extract_missing_elements_stay_undefined() {
        let t = extract_matrix(&a(), &[1], &[0]);
        assert_eq!(t.nvals(), 0);
    }

    #[test]
    fn extract_matches_naive_oracle_on_duplicated_permuted_lists() {
        // 9x11 with a deterministic pseudo-random pattern
        let mut tuples = Vec::new();
        let mut x = 77u64;
        for i in 0..9 {
            for j in 0..11 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (x >> 60) < 7 {
                    tuples.push((i, j, (x >> 40) as i32));
                }
            }
        }
        let a = Csr::from_sorted_tuples(9, 11, tuples);
        let oracle = |rows: &[Index], cols: &[Index]| {
            let mut t = Vec::new();
            for (k, &i) in rows.iter().enumerate() {
                for (l, &j) in cols.iter().enumerate() {
                    if let Some(v) = a.get(i, j) {
                        t.push((k, l, *v));
                    }
                }
            }
            t
        };
        let lists: [&[Index]; 6] = [
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[10, 3, 3, 0, 7, 3],
            &[5, 5, 5],
            &[2, 4, 4, 8, 9],
            &[8, 1, 6, 0],
            &[],
        ];
        let row_lists: [&[Index]; 4] = [&[0, 1, 2, 3, 4, 5, 6, 7, 8], &[8, 2, 2, 0], &[4], &[]];
        for rows in row_lists {
            for cols in lists {
                let t = extract_matrix(&a, rows, cols);
                assert_eq!((t.nrows(), t.ncols()), (rows.len(), cols.len()));
                assert_eq!(
                    t.to_tuples(),
                    oracle(rows, cols),
                    "rows {rows:?} cols {cols:?}"
                );
            }
        }
    }

    #[test]
    fn extract_vector_gather() {
        let u = SparseVec::from_sorted_parts(5, vec![1, 3], vec![10, 30]);
        let t = extract_vector(&u, &[3, 0, 1, 3]);
        assert_eq!(t.to_tuples(), vec![(0, 30), (2, 10), (3, 30)]);
        assert_eq!(t.size(), 4);
    }

    #[test]
    fn extract_column() {
        let t = extract_matrix_col(&a(), &[0, 1, 2], 1);
        assert_eq!(t.to_tuples(), vec![(0, 2), (1, 3)]);
        // Fig. 3 line 33 shape: extract columns of A^T selected by source
        // vertices = rows of A
        let at = a().transpose();
        let fr = extract_matrix(&at, &[0, 1, 2], &[1]);
        assert_eq!(fr.ncols(), 1);
        assert_eq!(fr.to_tuples(), vec![(1, 0, 3), (2, 0, 4)]);
    }
}
