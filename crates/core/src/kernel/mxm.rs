//! Sparse matrix–matrix multiply over a semiring (`GrB_mxm`'s compute
//! stage): `T(i,j) = ⊕_{k ∈ ind(A(i,:)) ∩ ind(B(:,j))} A(i,k) ⊗ B(k,j)`.
//!
//! Row-wise Gustavson SpGEMM, parallel over rows. Two accumulator
//! strategies (`Auto` picks per row; the unit tests force each one):
//!
//! * **Dense**: an `ncols`-wide scatter array per worker — best for rows
//!   whose result is a large fraction of the width;
//! * **Hash**: an open-addressing table sized to the row's flop estimate —
//!   best for very wide rows with few entries.
//!
//! The write mask is *pushed into the kernel*: positions the mask does not
//! admit are never accumulated (and with [`mxm_dot`], never even touched),
//! which is the optimization the GraphBLAS mask design exists to enable —
//! e.g. the BC example's `GrB_mxm(&frontier, numsp, … , desc_tsr)` prunes
//! already-discovered vertices *during* the multiply.

use crate::algebra::binary::BinaryOp;
use crate::algebra::monoid::Monoid;
use crate::algebra::semiring::Semiring;
use crate::exec::trace;
use crate::index::Index;
use crate::kernel::util::{emit_rows, stateless};
use crate::mask::{MaskCsr, MaskRow, Pattern};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::tiled::{OrientedTiles, Tiled};

/// Row-accumulator strategy for [`mxm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmStrategy {
    /// Choose per row: dense whenever the row width fits comfortably in
    /// cache (the per-worker scatter array is reused across rows, so it
    /// wins even on rows with a handful of entries), hash only for
    /// genuinely wide rows with few expected entries.
    #[default]
    Auto,
    /// Force the hash accumulator.
    Hash,
    /// Force the dense accumulator.
    Dense,
}

/// Widths up to this always use the dense accumulator under `Auto`:
/// the reused scatter array stays cache-resident and beats hashing
/// (2× on both sparse Erdős–Rényi and skewed R-MAT inputs).
const DENSE_ALWAYS_WIDTH: usize = 1 << 15;

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

/// Open-addressing accumulator for wide, sparse rows.
struct HashAcc<T> {
    keys: Vec<Index>,
    vals: Vec<Option<T>>,
    mask: usize,
    len: usize,
}

const EMPTY: Index = Index::MAX;

impl<T: Scalar> HashAcc<T> {
    fn with_estimate(est: usize) -> Self {
        let cap = (est.max(4) * 2).next_power_of_two();
        HashAcc {
            keys: vec![EMPTY; cap],
            vals: vec![None; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, j: Index) -> usize {
        // Fibonacci hashing on the column index
        (j.wrapping_mul(0x9E3779B97F4A7C15) >> 32) & self.mask
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; (self.mask + 1) * 2]);
        let old_vals = std::mem::replace(&mut self.vals, vec![None; (self.mask + 1) * 2]);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert_raw(k, v.expect("occupied slot has a value"));
            }
        }
    }

    fn insert_raw(&mut self, j: Index, v: T) {
        let mut s = self.slot(j);
        loop {
            if self.keys[s] == EMPTY {
                self.keys[s] = j;
                self.vals[s] = Some(v);
                self.len += 1;
                return;
            }
            s = (s + 1) & self.mask;
        }
    }

    #[inline]
    fn accumulate<M: Monoid<T>>(&mut self, j: Index, v: T, add: &M) {
        if self.len * 2 > self.mask {
            self.grow();
        }
        let mut s = self.slot(j);
        loop {
            if self.keys[s] == j {
                let slot = self.vals[s].as_mut().expect("occupied");
                *slot = add.apply(slot, &v);
                return;
            }
            if self.keys[s] == EMPTY {
                self.keys[s] = j;
                self.vals[s] = Some(v);
                self.len += 1;
                return;
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Append the accumulated entries in column order.
    fn drain_into(mut self, cols: &mut Vec<Index>, vals: &mut Vec<T>) {
        let mut pairs: Vec<(Index, T)> = Vec::with_capacity(self.len);
        for (k, v) in self.keys.iter().zip(self.vals.iter_mut()) {
            if *k != EMPTY {
                pairs.push((*k, v.take().expect("occupied")));
            }
        }
        pairs.sort_unstable_by_key(|&(j, _)| j);
        for (j, v) in pairs {
            cols.push(j);
            vals.push(v);
        }
    }
}

/// One output row of Gustavson's product: `A(i,:) ⊕.⊗ B` for the row
/// `(ac, av)` of `A`, restricted to what `mrow` admits and appended to
/// `cols`/`vals`. The fold runs in ascending `k` whatever the accumulator,
/// so every caller produces the same bits for the same row.
#[allow(clippy::too_many_arguments)]
fn gustavson_row<D1, D2, D3, S>(
    sr: &S,
    ac: &[Index],
    av: &[D1],
    b: &Csr<D2>,
    mrow: MaskRow<'_>,
    strategy: MxmStrategy,
    ws: &mut Workspace<D3>,
    cols: &mut Vec<Index>,
    vals: &mut Vec<D3>,
) where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    if mrow.admits_nothing() || ac.is_empty() {
        return;
    }
    let ncols = b.ncols();
    let unmasked = mrow.admits_everything();
    // Scatter the mask row for O(1) admission tests during the
    // accumulation sweep.
    let mask_flag = if unmasked {
        true
    } else {
        mrow.scatter(&mut ws.mask_ws, &mut ws.mask_touched)
    };
    let admitted = |ws: &Workspace<D3>, j: Index| unmasked || (ws.mask_ws[j] != mask_flag);

    let flops: usize = ac.iter().map(|&k| b.row_nvals(k)).sum();
    let use_dense = match strategy {
        MxmStrategy::Dense => true,
        MxmStrategy::Hash => false,
        MxmStrategy::Auto => ncols <= DENSE_ALWAYS_WIDTH || flops >= ncols / 16,
    };
    let add = sr.add();
    let mul = sr.mul();

    if use_dense {
        for (k, aik) in ac.iter().zip(av) {
            let (bc, bv) = b.row(*k);
            for (j, bkj) in bc.iter().zip(bv) {
                if !admitted(ws, *j) {
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
    } else {
        let mut acc = HashAcc::with_estimate(flops);
        for (k, aik) in ac.iter().zip(av) {
            let (bc, bv) = b.row(*k);
            for (j, bkj) in bc.iter().zip(bv) {
                if !admitted(ws, *j) {
                    continue;
                }
                acc.accumulate(*j, mul.apply(aik, bkj), add);
            }
        }
        acc.drain_into(cols, vals);
    }
    // reset mask workspace for the next row handled by this worker
    for &j in &ws.mask_touched {
        ws.mask_ws[j] = false;
    }
    ws.mask_touched.clear();
}

/// `T = A ⊕.⊗ B`, restricted to mask-admitted positions.
///
/// Dimensions must already be validated by the operation layer
/// (`ncols(A) == nrows(B)`).
pub fn mxm<D1, D2, D3, S>(
    sr: &S,
    a: &Csr<D1>,
    b: &Csr<D2>,
    mask: &MaskCsr,
    strategy: MxmStrategy,
) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.ncols(), b.nrows());
    let (nrows, ncols) = (a.nrows(), b.ncols());
    emit_rows(
        nrows,
        ncols,
        a.nvals() + b.nvals(),
        |_, _| Workspace::<D3>::new(ncols),
        |ws, i, cols, vals| {
            let (ac, av) = a.row(i);
            gustavson_row(sr, ac, av, b, mask.row(i), strategy, ws, cols, vals);
        },
    )
}

/// Tiled SpGEMM: `T = A ⊕.⊗ B` where `A` is stored as a 2D tile grid.
/// Each logical row of `A` is gathered across its stripe's tiles
/// left-to-right — ascending global `k`, the same entry order the slab
/// kernel walks — and fed through the identical per-row accumulation,
/// so the result is bitwise-equal to [`mxm`] on the assembled slab.
/// Only the tiles in stripes that actually multiply are materialized as
/// row views; the touched set is recorded for the execution trace.
pub fn mxm_tiled<D1, D2, D3, S>(sr: &S, a: &Tiled<D1>, b: &Csr<D2>, mask: &MaskCsr) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.ncols(), b.nrows());
    let (nrows, ncols) = (a.nrows(), b.ncols());
    let ot = OrientedTiles::new(a, false);
    let t = emit_rows(
        nrows,
        ncols,
        a.nvals() + b.nvals(),
        |_, _| {
            (
                Workspace::<D3>::new(ncols),
                Vec::<Index>::new(),
                Vec::<D1>::new(),
                ot.cursor(),
            )
        },
        |(ws, ac, av, cur), i, cols, vals| {
            let mrow = mask.row(i);
            if mrow.admits_nothing() {
                return;
            }
            // Gather A(i,:) across the stripe's tiles in ascending-k order.
            ac.clear();
            av.clear();
            cur.for_row(i, &mut |off, tc, tv| {
                for (c, v) in tc.iter().zip(tv) {
                    ac.push(off + c);
                    av.push(v.clone());
                }
            });
            gustavson_row(sr, ac, av, b, mrow, MxmStrategy::Auto, ws, cols, vals);
        },
    );
    trace::note(|n| n.add_tiles(ot.touched()));
    t
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
    fn hash_and_dense_strategies_agree() {
        let c_hash = mxm(
            &plus_times::<i32>(),
            &a(),
            &b(),
            &MaskCsr::All,
            MxmStrategy::Hash,
        );
        let c_dense = mxm(
            &plus_times::<i32>(),
            &a(),
            &b(),
            &MaskCsr::All,
            MxmStrategy::Dense,
        );
        assert_eq!(c_hash, c_dense);
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

    #[test]
    fn large_random_hash_vs_dense_vs_dot() {
        // deterministic pseudo-random pattern, big enough to hit the
        // parallel path and hash growth
        let n = 300usize;
        let mut tuples = Vec::new();
        let mut x = 12345u64;
        for i in 0..n {
            for _ in 0..5 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (x >> 33) as usize % n;
                tuples.push((i, j, ((x >> 17) % 10) as i64));
            }
        }
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        let a = Csr::from_sorted_tuples(n, n, tuples);
        let h = mxm(
            &plus_times::<i64>(),
            &a,
            &a,
            &MaskCsr::All,
            MxmStrategy::Hash,
        );
        let d = mxm(
            &plus_times::<i64>(),
            &a,
            &a,
            &MaskCsr::All,
            MxmStrategy::Dense,
        );
        assert_eq!(h, d);
        // dot against the full pattern of the product
        let full_pattern = h.map(|_| ());
        let dot = mxm_dot(&plus_times::<i64>(), &a, &a.transpose(), &full_pattern);
        assert_eq!(dot, h);
    }

    #[test]
    fn tiled_kernel_matches_csr_kernel_bitwise() {
        let n = 300usize;
        let mut tuples = Vec::new();
        let mut x = 424242u64;
        for i in 0..n {
            for _ in 0..4 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (x >> 33) as usize % n;
                tuples.push((i, j, ((x >> 17) % 1000) as f64 / 7.0));
            }
        }
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        let a_csr = Csr::from_sorted_tuples(n, n, tuples);
        let slab = mxm(
            &plus_times::<f64>(),
            &a_csr,
            &a_csr,
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        for grid in [(1, 1), (2, 2), (4, 4), (7, 3)] {
            let a_tiled = Tiled::from_csr(&a_csr, grid);
            let tiled = mxm_tiled(&plus_times::<f64>(), &a_tiled, &a_csr, &MaskCsr::All);
            // f64 plus is not associative under reordering — equality here
            // proves the tiled gather preserves the slab's fold order.
            assert_eq!(tiled, slab, "grid {grid:?}");
        }
        crate::exec::take_notes();
    }

    #[test]
    fn tiled_kernel_respects_mask() {
        let a_csr = Csr::from_sorted_tuples(10, 10, vec![(1, 2, 2i32), (2, 3, 3), (9, 1, 7)]);
        let a_tiled = Tiled::from_csr(&a_csr, (3, 3));
        let m = Csr::from_sorted_tuples(10, 10, vec![(1, 3, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let masked = mxm_tiled(&plus_times::<i32>(), &a_tiled, &a_csr, &mask);
        let reference = mxm(
            &plus_times::<i32>(),
            &a_csr,
            &a_csr,
            &mask,
            MxmStrategy::Auto,
        );
        assert_eq!(masked, reference);
        assert_eq!(masked.nvals(), 1);
        crate::exec::take_notes();
    }

    #[test]
    fn empty_mask_skips_all_work() {
        let mask = MaskCsr::from_csr(&Csr::<bool>::empty(2, 2), false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.nvals(), 0);
    }
}
