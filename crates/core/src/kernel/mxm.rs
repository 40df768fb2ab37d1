//! Sparse matrix–matrix multiply over a semiring (`GrB_mxm`'s compute
//! stage): `T(i,j) = ⊕_{k ∈ ind(A(i,:)) ∩ ind(B(:,j))} A(i,k) ⊗ B(k,j)`.
//!
//! Row-wise Gustavson SpGEMM, parallel over rows: each worker scatters
//! its rows into one reused `ncols`-wide dense accumulator. A tiled `A`
//! is read through its store's memoized row view, like any other store.
//!
//! The write mask is *pushed into the kernel*: positions the mask does not
//! admit are never accumulated (and with [`mxm_dot`], never even touched),
//! which is the optimization the GraphBLAS mask design exists to enable —
//! e.g. the BC example's `GrB_mxm(&frontier, numsp, … , desc_tsr)` prunes
//! already-discovered vertices *during* the multiply.

use crate::algebra::binary::BinaryOp;
use crate::algebra::semiring::Semiring;
use crate::index::Index;
use crate::kernel::util::{emit_rows, stateless};
use crate::mask::{MaskCsr, Pattern};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;

/// Row-accumulator strategy for [`mxm`]. One remains: every row uses the
/// reused dense accumulator. Kept so callers that name it still compile.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmStrategy {
    /// The dense per-worker accumulator.
    #[default]
    Auto,
}

/// Per-worker scratch space, reused across the rows a worker processes.
struct Workspace<T> {
    dense: Vec<Option<T>>,
    touched: Vec<Index>,
    mask_ws: Vec<bool>,
    mask_touched: Vec<Index>,
}

impl<T: Scalar> Workspace<T> {
    fn new(ncols: Index) -> Self {
        Workspace {
            dense: vec![None; ncols],
            touched: Vec::new(),
            mask_ws: vec![false; ncols],
            mask_touched: Vec::new(),
        }
    }
}

/// `T = A ⊕.⊗ B`, restricted to mask-admitted positions. Each output
/// row folds in ascending `k`, as [`mxm_dot`] does, so both forms
/// produce the same bits.
///
/// Dimensions must already be validated by the operation layer
/// (`ncols(A) == nrows(B)`).
pub fn mxm<D1, D2, D3, S>(
    sr: &S,
    a: &Csr<D1>,
    b: &Csr<D2>,
    mask: &MaskCsr,
    _strategy: MxmStrategy,
) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.ncols(), b.nrows());
    let (nrows, ncols) = (a.nrows(), b.ncols());
    let add = sr.add();
    let mul = sr.mul();
    emit_rows(
        nrows,
        ncols,
        a.nvals() + b.nvals(),
        |_, _| Workspace::<D3>::new(ncols),
        |ws, i, cols, vals| {
            let (ac, av) = a.row(i);
            let mrow = mask.row(i);
            if mrow.admits_nothing() || ac.is_empty() {
                return;
            }
            let unmasked = mrow.admits_everything();
            // Scatter the mask row for O(1) admission tests during the
            // accumulation sweep.
            let mask_flag = unmasked || mrow.scatter(&mut ws.mask_ws, &mut ws.mask_touched);
            for (k, aik) in ac.iter().zip(av) {
                let (bc, bv) = b.row(*k);
                for (j, bkj) in bc.iter().zip(bv) {
                    if !(unmasked || ws.mask_ws[*j] != mask_flag) {
                        continue;
                    }
                    let prod = mul.apply(aik, bkj);
                    match &mut ws.dense[*j] {
                        Some(acc) => *acc = add.apply(acc, &prod),
                        slot @ None => {
                            *slot = Some(prod);
                            ws.touched.push(*j);
                        }
                    }
                }
            }
            ws.touched.sort_unstable();
            for &j in &ws.touched {
                cols.push(j);
                vals.push(ws.dense[j].take().expect("touched slot"));
            }
            ws.touched.clear();
            // reset mask workspace for the next row handled by this worker
            for &j in &ws.mask_touched {
                ws.mask_ws[j] = false;
            }
            ws.mask_touched.clear();
        },
    )
}

/// The masked-product strategy choice: `true` when the dot form
/// ([`mxm_dot`]) walks no more than Gustavson ([`mxm`]) would, for an
/// effective, non-complemented `pattern` over `A′ ⊕.⊗ B`.
///
/// The dot form merge-walks `A′(i,:)` against `B(:,j)` for every admitted
/// `(i, j)` whose row of `A′` is non-empty — at most `|A′(i,:)| + |B(:,j)|`
/// steps each — after building `Bᵀ`, which costs `bt_cost` (`nnz(B)`, or
/// 0 when that view is already materialised). Gustavson does `flops`
/// multiply-adds plus a sweep over the rows of `A′`. `b_col_degrees[j]`
/// is `|B(:,j)|`, a store's cached degrees, so the estimate is
/// O(|pattern| + nrows) and stops as soon as the dot side loses.
///
/// Both forms fold each output in ascending `k`, so the choice changes
/// how long a product takes, never a bit of its result.
pub fn prefer_dot<D1: Scalar>(
    a: &Csr<D1>,
    pattern: &Pattern,
    b_col_degrees: &[usize],
    bt_cost: usize,
    flops: usize,
) -> bool {
    debug_assert_eq!(a.nrows(), pattern.nrows());
    let budget = flops.saturating_add(a.nrows());
    let mut work = bt_cost;
    for i in 0..pattern.nrows() {
        let a_row = a.row_nvals(i);
        if a_row == 0 {
            continue;
        }
        let (mcols, _) = pattern.row(i);
        work += mcols.len() * a_row + mcols.iter().map(|&j| b_col_degrees[j]).sum::<usize>();
        if work > budget {
            return false;
        }
    }
    work <= budget
}

/// Masked dot-product SpGEMM: computes `T = A ⊕.⊗ B` **only** at the
/// positions of `pattern` (an effective, non-complemented mask), given
/// `B` in transposed form. Work is `O(Σ_{(i,j)∈mask} (nnz A(i,:) +
/// nnz B(:,j)))` — independent of the full product's flop count, which is
/// what makes strongly-masked products (triangle counting, BC frontier
/// pruning with sparse masks) cheap.
pub fn mxm_dot<D1, D2, D3, S>(sr: &S, a: &Csr<D1>, bt: &Csr<D2>, pattern: &Pattern) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.nrows(), pattern.nrows());
    debug_assert_eq!(bt.nrows(), pattern.ncols());
    let nrows = a.nrows();
    let ncols = bt.nrows();
    let add = sr.add();
    let mul = sr.mul();
    emit_rows(
        nrows,
        ncols,
        a.nvals() + bt.nvals(),
        stateless,
        |_, i, cols, vals| {
            let (ac, av) = a.row(i);
            if ac.is_empty() {
                return;
            }
            for &j in pattern.row(i).0 {
                let (bc, bv) = bt.row(j);
                // merge-walk the intersection ind(A(i,:)) ∩ ind(B(:,j))
                let (mut p, mut q) = (0usize, 0usize);
                let mut acc: Option<D3> = None;
                while p < ac.len() && q < bc.len() {
                    match ac[p].cmp(&bc[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            let prod = mul.apply(&av[p], &bv[q]);
                            acc = Some(match acc {
                                Some(x) => add.apply(&x, &prod),
                                None => prod,
                            });
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if let Some(v) = acc {
                    cols.push(j);
                    vals.push(v);
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semiring::{lor_land, min_plus, plus_times};

    fn a() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 4 ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3), (1, 2, 4)])
    }

    fn b() -> Csr<i32> {
        // [ 5 . ]
        // [ 6 7 ]
        // [ . 8 ]
        Csr::from_sorted_tuples(3, 2, vec![(0, 0, 5), (1, 0, 6), (1, 1, 7), (2, 1, 8)])
    }

    #[test]
    fn plus_times_matches_dense_reference() {
        let c = mxm(
            &plus_times::<i32>(),
            &a(),
            &b(),
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        // [ 1*5+2*6  2*7      ] = [ 17 14 ]
        // [ 3*6      3*7+4*8  ]   [ 18 53 ]
        assert_eq!(
            c.to_tuples(),
            vec![(0, 0, 17), (0, 1, 14), (1, 0, 18), (1, 1, 53)]
        );
    }

    #[test]
    fn no_entry_where_intersection_empty() {
        // A row hits only B rows with no entries in some column ->
        // that output position stays undefined (never a fabricated zero).
        let a = Csr::from_sorted_tuples(1, 2, vec![(0, 0, 1)]);
        let b = Csr::from_sorted_tuples(2, 2, vec![(1, 1, 1)]);
        let c = mxm(
            &plus_times::<i32>(),
            &a,
            &b,
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        assert_eq!(c.nvals(), 0);
    }

    #[test]
    fn min_plus_semiring_shortest_hop() {
        let sr = min_plus::<i64>();
        // path weights: A(0,1)=1, A(1,2)=2; A^2 should give 0->2 = 3
        let a = Csr::from_sorted_tuples(3, 3, vec![(0, 1, 1i64), (1, 2, 2)]);
        let c = mxm(&sr, &a, &a, &MaskCsr::All, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 2, 3)]);
    }

    #[test]
    fn boolean_reachability() {
        let sr = lor_land();
        let a = Csr::from_sorted_tuples(3, 3, vec![(0, 1, true), (1, 0, true), (1, 2, true)]);
        let c = mxm(&sr, &a, &a, &MaskCsr::All, MxmStrategy::Auto);
        assert_eq!(
            c.to_tuples(),
            vec![(0, 0, true), (0, 2, true), (1, 1, true)]
        );
    }

    #[test]
    fn masked_mxm_only_produces_admitted_positions() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 1, true), (1, 0, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 1, 14), (1, 0, 18)]);
    }

    #[test]
    fn complemented_mask_in_kernel() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 1, true), (1, 0, true)]);
        let mask = MaskCsr::from_csr(&m, false, true);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 0, 17), (1, 1, 53)]);
    }

    #[test]
    fn stored_false_mask_values_do_not_admit() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 0, 1i32), (0, 1, 0)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 0, 17)]);
    }

    #[test]
    fn dot_kernel_matches_scatter_kernel_under_mask() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 0, true), (1, 1, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let scatter = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        let pattern = match &mask {
            MaskCsr::Pattern { pattern, .. } => pattern.clone(),
            _ => unreachable!(),
        };
        let dot = mxm_dot(&plus_times::<i32>(), &a(), &b().transpose(), &pattern);
        assert_eq!(scatter, dot);
    }

    #[test]
    fn prefer_dot_routes_wide_block_sweep_to_gustavson() {
        // Fig. 3 backward sweep at its widest level (rmat12, 32 sources):
        // `w<sigmas> = A +.* w` with a 17,211-entry mask, each admitted
        // position meeting a ~1,400-entry column of the 44,410-entry w,
        // against 350,349 Gustavson flops.
        let n = 4096;
        let mut a_tuples: Vec<_> = (0..n)
            .flat_map(|i| (0..7).map(move |k| (i, (i + k * 577) % n, 1i32)))
            .collect();
        a_tuples.sort_unstable();
        let a = Csr::from_sorted_tuples(n, n, a_tuples);
        // 538 mask rows, 7 apart, each admitting (nearly) all 32 columns
        let pattern =
            Pattern::from_sorted_tuples(n, 32, (0..17_211).map(|e| (e / 32 * 7, e % 32, ())));
        let flops = 350_349;
        let b_col_degrees = vec![44_410 / 32; 32];
        assert!(!prefer_dot(&a, &pattern, &b_col_degrees, 44_410, flops));
        // even with Bᵀ already materialised
        assert!(!prefer_dot(&a, &pattern, &b_col_degrees, 0, flops));
    }

    #[test]
    fn prefer_dot_keeps_triangle_count_on_dot() {
        // Sandia-style `C<L> = L ⊕.⊗ Lᵀ` on a graph whose hubs sit at the
        // lowest indices: L's rows are short, its hub columns long, so
        // Gustavson expands every hub column once per row that meets it
        // while the dot form walks only short rows.
        let (n, hubs) = (2000, 10);
        let mut tuples = std::collections::BTreeSet::new();
        for i in hubs..n {
            for h in 0..hubs {
                tuples.insert((i, h, true));
            }
            tuples.insert((i, i - 1, true));
            tuples.insert((i, (i * 31) % i, true));
        }
        let l = Csr::from_sorted_tuples(n, n, tuples);
        let pattern = l.map(|_| ());
        // effective B = Lᵀ: |B(:,j)| = |L(j,:)|, and Bᵀ = L is stored
        let b_col_degrees: Vec<usize> = (0..n).map(|j| l.row_nvals(j)).collect();
        let mut l_col_degrees = vec![0usize; n];
        for &k in l.col_idx() {
            l_col_degrees[k] += 1;
        }
        let flops: usize = l.col_idx().iter().map(|&k| l_col_degrees[k]).sum();
        assert!(prefer_dot(&l, &pattern, &b_col_degrees, 0, flops));
        // and the two forms agree on it
        let sr = plus_times::<i32>();
        let li = l.map(|_| 1i32);
        let mask = MaskCsr::Pattern {
            pattern: pattern.clone(),
            complement: false,
        };
        assert_eq!(
            mxm(&sr, &li, &li.transpose(), &mask, MxmStrategy::Auto),
            mxm_dot(&sr, &li, &li, &pattern)
        );
    }

    /// Pseudo-random `nrows × ncols` tuples, `per_row` draws a row.
    fn random_csr(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr<i64> {
        let mut tuples = Vec::new();
        let mut x = seed;
        for i in 0..nrows {
            for _ in 0..per_row {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (x >> 33) as usize % ncols;
                tuples.push((i, j, ((x >> 17) % 10) as i64));
            }
        }
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        Csr::from_sorted_tuples(nrows, ncols, tuples)
    }

    /// Gustavson against the dot form over the full pattern of its own
    /// product: the same entries, folded in the same order.
    fn assert_matches_dot(a: &Csr<i64>, b: &Csr<i64>) {
        let sr = plus_times::<i64>();
        let t = mxm(&sr, a, b, &MaskCsr::All, MxmStrategy::Auto);
        assert!(t.nvals() > 0);
        let dot = mxm_dot(&sr, a, &b.transpose(), &t.map(|_| ()));
        assert_eq!(dot, t);
    }

    #[test]
    fn large_random_gustavson_vs_dot() {
        // big enough to hit the parallel path
        let a = random_csr(300, 300, 5, 12345);
        assert_matches_dot(&a, &a);
    }

    #[test]
    fn wide_sparse_rows_match_dot() {
        // a few sparse rows over 40,000 output columns: the dense
        // accumulator spans the full width, however few entries a row has
        let (k, n) = (64, 40_000);
        let a = random_csr(6, k, 3, 777);
        let b = random_csr(k, n, 4, 4242);
        assert_matches_dot(&a, &b);
    }

    #[test]
    fn empty_mask_skips_all_work() {
        let mask = MaskCsr::from_csr(&Csr::<bool>::empty(2, 2), false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.nvals(), 0);
    }
}
