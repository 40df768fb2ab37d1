//! `extract` kernels (Table II): `T = A(i, j)` — gather a subcollection
//! selected by index lists. Index lists arrive already resolved and
//! bounds-checked by the operation layer; duplicates are allowed (the
//! same source element may land in several output positions).

use crate::index::Index;
use crate::kernel::util::emit_rows;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// The inverse of an index list over a source dimension, built once per
/// call: source index `j` lands at output positions
/// `positions[start[j]..start[j + 1]]`, ascending. A duplicated index
/// owns several positions; a permutation only reorders them. The
/// identity list `0..n` keeps no map.
struct Gather {
    map: Option<(Vec<usize>, Vec<Index>)>,
    /// The list is non-decreasing, so a walk of the source in index
    /// order already emits ascending output positions.
    ordered: bool,
}

impl Gather {
    fn new(n: usize, list: &[Index]) -> Gather {
        let identity = list.len() == n && list.iter().enumerate().all(|(l, &j)| l == j);
        let map = (!identity).then(|| {
            // counts land two slots up, so after the running sum
            // `start[j + 1]` is j's first position and can serve as its
            // fill cursor; once filled, `start[j]..start[j + 1]` is j's run
            let mut start = vec![0usize; n + 2];
            for &j in list {
                start[j + 2] += 1;
            }
            let mut sum = 0;
            for s in &mut start {
                sum += *s;
                *s = sum;
            }
            let mut positions = vec![0; list.len()];
            for (l, &j) in list.iter().enumerate() {
                positions[start[j + 1]] = l;
                start[j + 1] += 1;
            }
            (start, positions)
        });
        Gather {
            map,
            ordered: list.is_sorted(),
        }
    }

    /// Append the gather of one ascending source run (`src_idx`,
    /// `src_vals`) to `out_i`/`out_v` in ascending output position;
    /// `scratch` is reused across calls to sort an unordered list's hits.
    fn run<T: Clone>(
        &self,
        src_idx: &[Index],
        src_vals: &[T],
        scratch: &mut Vec<(Index, T)>,
        out_i: &mut Vec<Index>,
        out_v: &mut Vec<T>,
    ) {
        let Some((start, positions)) = &self.map else {
            out_i.extend_from_slice(src_idx);
            out_v.extend_from_slice(src_vals);
            return;
        };
        let hits = src_idx.iter().zip(src_vals).flat_map(|(&j, v)| {
            positions[start[j]..start[j + 1]]
                .iter()
                .map(move |&l| (l, v))
        });
        if self.ordered {
            for (l, v) in hits {
                out_i.push(l);
                out_v.push(v.clone());
            }
            return;
        }
        scratch.clear();
        scratch.extend(hits.map(|(l, v)| (l, v.clone())));
        scratch.sort_unstable_by_key(|&(l, _)| l);
        for (l, v) in scratch.drain(..) {
            out_i.push(l);
            out_v.push(v);
        }
    }
}

/// `T(k, l) = A(rows[k], cols[l])` for stored elements.
///
/// Each output row costs its source row plus what it emits — never a
/// scan of `cols`.
pub fn extract_matrix<T: Scalar>(a: &Csr<T>, rows: &[Index], cols: &[Index]) -> Csr<T> {
    let gather = Gather::new(a.ncols(), cols);
    emit_rows(
        rows.len(),
        cols.len(),
        a.nvals(),
        |_, _| Vec::<(Index, T)>::new(),
        |scratch, k, out_c, out_v| {
            let (src_cols, src_vals) = a.row(rows[k]);
            gather.run(src_cols, src_vals, scratch, out_c, out_v);
        },
    )
}

/// `t(k) = u(indices[k])` for stored elements: one walk of `u` through
/// the same inverse map as [`extract_matrix`]. A full `u` is gathered
/// through the list directly, with no map.
pub fn extract_vector<T: Scalar>(u: &SparseVec<T>, indices: &[Index]) -> SparseVec<T> {
    if u.is_full() {
        let vals = indices.iter().map(|&j| u.vals()[j].clone()).collect();
        return SparseVec::from_sorted_parts(indices.len(), (0..indices.len()).collect(), vals);
    }
    // each output position holds at most one element
    let cap = indices.len();
    let (mut idx, mut vals) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    Gather::new(u.size(), indices).run(u.indices(), u.vals(), &mut Vec::new(), &mut idx, &mut vals);
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
        // the vector gather shares the map: each row of A as a vector
        for i in 0..9 {
            let (c, v) = a.row(i);
            let u = SparseVec::from_sorted_parts(11, c.to_vec(), v.to_vec());
            for cols in lists {
                let want: Vec<_> = oracle(&[i], cols)
                    .into_iter()
                    .map(|(_, l, v)| (l, v))
                    .collect();
                assert_eq!(
                    extract_vector(&u, cols).to_tuples(),
                    want,
                    "row {i} {cols:?}"
                );
            }
        }
    }

    #[test]
    fn full_source_gathers_through_the_list() {
        let u = SparseVec::from_dense(&[7, 8, 9]);
        let t = extract_vector(&u, &[2, 0, 2]);
        assert_eq!(t.to_tuples(), vec![(0, 9), (1, 7), (2, 9)]);
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
