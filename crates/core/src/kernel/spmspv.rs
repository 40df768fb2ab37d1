//! Direction-optimized SpMSpV: one dispatch point for `vxm`/`mxv` that
//! picks, per operation, between three bitwise-identical evaluation
//! strategies:
//!
//! * **dense** — the scatter: each stored input entry `v(i)` is pushed
//!   through forward row `i` into a value array plus a presence bitset
//!   over the output range, and the result is emitted by sweeping the
//!   bitset in index order — nothing is sorted. Work is the frontier's
//!   outgoing edges plus an O(output / 64) sweep;
//! * **push** — the sparse accumulator, for tiny frontiers: gather
//!   `(output index, product)` pairs, stable-sort, reduce adjacent
//!   duplicates. No O(output) term, serial;
//! * **pull** — a merge-walk per *admitted* output index over the
//!   reverse-oriented rows: non-complement masks expand only their
//!   indices, complement masks skip excluded rows before expanding
//!   them, and a row stops folding once its accumulator is terminal
//!   under ⊕ ([`Monoid::is_terminal`]).
//!
//! Every strategy walks one CSR view per orientation, the store's
//! memoized [`MatrixStore::row_csr`] / [`MatrixStore::col_csr`] whatever
//! its layout, and probes the mask in O(1) through one bitset built per
//! dispatch, in O(|mask| + n/64).
//!
//! The choice is driven by the per-store property cache
//! ([`MatrixStore::row_degrees`] / [`MatrixStore::col_degrees`]): the
//! push and dense costs scale with the *exact* number of products (the
//! sum of cached forward degrees over the frontier), plus a mask probe
//! per product for a masked scatter; the pull cost with the admitted
//! fraction of the matrix, the products landing in it and how
//! unpredictably its probes hit the input; plus a conversion penalty
//! for whichever CSR view a plan needs and is not yet materialized. A
//! store that keeps being asked for a plan only that penalty rules out
//! builds the view once its regret has paid for it (rent-or-buy, see
//! `choose`), so a resident matrix gets the pull over `A^T` that
//! LAGraph's PageRank runs. This is the LAGraph-style direction switch:
//! push on tiny frontiers, scatter on large ones, pull when the mask
//! admits little or the input covers almost every row.
//!
//! **Determinism contract.** Every strategy folds each output element's
//! products left to right in ascending input-index order, the first
//! product stored as is — and no strategy splits one output's fold
//! across workers: the scatter parallelizes over *output ranges* (each
//! worker walks the whole frontier and keeps its column sub-slice of
//! every row) and pull over output rows, with results concatenated in
//! index order. So push ≡ pull ≡ dense *bitwise* (NaN payloads, signed
//! zeros and non-associative float sums included) at every parallelism
//! degree.

use std::ops::Range;
use std::sync::Arc;

use crate::algebra::binary::BinaryOp;
use crate::algebra::monoid::Monoid;
use crate::algebra::semiring::Semiring;
use crate::exec::trace;
use crate::index::Index;
use crate::kernel::par;
use crate::mask::MaskVec;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::MatrixStore;
use crate::storage::vec::SparseVec;

/// Evaluation strategy for one matrix–vector product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Let the cost model decide (the default).
    Auto,
    /// Force the sparse-accumulator (sort-and-reduce) push.
    Push,
    /// Force the per-output merge-walk pull path.
    Pull,
    /// Force the dense scatter (value array + presence bitset).
    Dense,
}

/// The direction is a session setting (see [`crate::options`]): forced
/// process-wide for tests and benchmarks, `Auto` otherwise.
pub use crate::options::with_direction;

/// `w^T = v^T ⊕.⊗ op(A)` with direction optimization; `transposed`
/// selects `op(A) = A^T` (the `GrB_TRAN` descriptor).
pub fn vxm<D1, D2, D3, S>(
    sr: &S,
    v: &SparseVec<D1>,
    store: &MatrixStore<D2>,
    transposed: bool,
    mask: &MaskVec,
) -> SparseVec<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    let mul = sr.mul();
    // the forward rows are indexed by the input dimension: A's rows
    // unless transposed. Kernel closures take (matrix value, vector
    // value); vxm multiplies vector-first per Table II.
    spmv(store, transposed, v, mask, sr.add(), &|a: &D2, x: &D1| {
        mul.apply(x, a)
    })
}

/// `w = op(A) ⊕.⊗ v` with direction optimization; `transposed` selects
/// `op(A) = A^T`.
pub fn mxv<D1, D2, D3, S>(
    sr: &S,
    store: &MatrixStore<D1>,
    v: &SparseVec<D2>,
    transposed: bool,
    mask: &MaskVec,
) -> SparseVec<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    let mul = sr.mul();
    // mxv's forward rows are A's columns unless transposed, and it
    // multiplies matrix-first
    spmv(store, !transposed, v, mask, sr.add(), &|a: &D1, x: &D2| {
        mul.apply(a, x)
    })
}

/// The shared dispatch. `fwd_col_side` names the orientation whose rows
/// are indexed by the input dimension (`true` = A's columns); push and
/// the scatter read it, pull reads the other one.
fn spmv<A, V, D3, Mo, M>(
    store: &MatrixStore<A>,
    fwd_col_side: bool,
    v: &SparseVec<V>,
    mask: &MaskVec,
    add: &Mo,
    mulf: &M,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    Mo: Monoid<D3>,
    M: Fn(&A, &V) -> D3 + Sync,
{
    let out_size = if fwd_col_side {
        store.nrows()
    } else {
        store.ncols()
    };
    let fwd_deg = if fwd_col_side {
        store.col_degrees()
    } else {
        store.row_degrees()
    };
    // exact number of products push and the scatter will form
    let products: usize = v.indices().iter().map(|&i| fwd_deg[i]).sum();
    let admitted = admitted(mask, out_size);
    let bits = MaskBits::new(mask, out_size);
    let plan = choose(
        store,
        v.nvals(),
        products,
        fwd_col_side,
        admitted,
        !bits.admits_all(),
        out_size,
    );
    match plan {
        Chosen::Push => {
            trace::note(|n| n.direction.set(Some("push")));
            push(&view(store, fwd_col_side), v, &bits, out_size, mulf, add)
        }
        Chosen::Dense => {
            trace::note(|n| n.direction.set(Some("dense")));
            scatter(store, fwd_col_side, v, &bits, out_size, products, mulf, add)
        }
        Chosen::Pull => {
            trace::note(|n| n.direction.set(Some("pull")));
            let rows = view(store, !fwd_col_side);
            pull(&rows, v, mask, &bits, out_size, store.nvals(), mulf, add)
        }
    }
}

/// How many output indices `mask` admits.
fn admitted(mask: &MaskVec, out_size: Index) -> usize {
    match mask {
        MaskVec::All => out_size,
        MaskVec::Pattern {
            indices,
            complement: false,
        } => indices.len(),
        MaskVec::Pattern {
            indices,
            complement: true,
        } => out_size.saturating_sub(indices.len()),
    }
}

/// A [`MaskVec`] in O(1)-probe form, built once per dispatch in
/// O(|mask| + n/64): bit `j` is set iff `j` is in the pattern. No mask
/// is the empty pattern complemented, with no words allocated.
struct MaskBits {
    words: Vec<u64>,
    complement: bool,
}

impl MaskBits {
    fn new(mask: &MaskVec, n: Index) -> Self {
        match mask {
            MaskVec::All => MaskBits {
                words: Vec::new(),
                complement: true,
            },
            MaskVec::Pattern {
                indices,
                complement,
            } => {
                let mut words = vec![0u64; n.div_ceil(64)];
                // one store per word: the indices are sorted, so each
                // word's bits arrive as one run
                for run in indices.chunk_by(|a, b| a / 64 == b / 64) {
                    words[run[0] / 64] |= run.iter().fold(0, |m, j| m | 1 << (j % 64));
                }
                MaskBits {
                    words,
                    complement: *complement,
                }
            }
        }
    }

    /// `true` when nothing is excluded, so hot loops can skip the probe.
    fn admits_all(&self) -> bool {
        self.words.is_empty() && self.complement
    }

    #[inline]
    fn admits(&self, j: Index) -> bool {
        let word = self.words.get(j / 64).copied().unwrap_or(0);
        ((word >> (j % 64)) & 1 == 1) != self.complement
    }
}

/// The store's CSR view in one orientation (`true` = rows indexed by
/// A's columns), built at most once per store.
fn view<A: Scalar>(store: &MatrixStore<A>, col_side: bool) -> Arc<Csr<A>> {
    if col_side {
        store.col_csr()
    } else {
        store.row_csr()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chosen {
    Push,
    Pull,
    Dense,
}

/// The direction heuristic. `fwd_col_side` names the orientation whose
/// CSR push and the scatter need (`true` = A's column orientation), so
/// the conversion penalties land on the right side of the comparison;
/// `masked` says whether the scatter must probe a mask per product.
fn choose<A: Scalar>(
    store: &MatrixStore<A>,
    v_nnz: usize,
    products: usize,
    fwd_col_side: bool,
    admitted: usize,
    masked: bool,
    out_size: Index,
) -> Chosen {
    match crate::options::direction() {
        Direction::Push => return Chosen::Push,
        Direction::Pull => return Chosen::Pull,
        Direction::Dense => return Chosen::Dense,
        Direction::Auto => {}
    }
    if v_nnz == 0 {
        // nothing to scatter; push is the trivially empty plan
        return Chosen::Push;
    }
    let nnz = store.nvals();
    // a view is free when it is already materialized — or when the row
    // view is and the value is (bitwise) symmetric, because `col_csr`
    // then *shares* the row view instead of transposing. The symmetry
    // probe only runs when the row view is itself free, so costing a
    // plan never triggers the very conversion being costed.
    let price = CONVERT.saturating_mul(nnz + out_size);
    let penalty = |col_side: bool| {
        let free =
            store.csr_view_ready(col_side) || (store.csr_view_ready(false) && store.is_symmetric());
        if free {
            0
        } else {
            price
        }
    };
    let penalties = [penalty(false), penalty(true)];
    let push_cost = PUSH_PRODUCT.saturating_mul(products);
    let mask_probes = if masked { products } else { 0 };
    let dense_cost = DENSE_PRODUCT
        .saturating_mul(products)
        .saturating_add(DENSE_ROW.saturating_mul(v_nnz))
        .saturating_add(out_size / DENSE_OUTPUTS)
        .saturating_add(DENSE_MASK.saturating_mul(mask_probes));
    // the complement-structural-mask-aware part: only admitted outputs
    // are ever expanded, so the pull cost scales with the admitted
    // fraction, not the matrix. Of its probes, the products that land
    // in admitted rows find a stored input and fold; whether a probe
    // finds one is a branch taken with odds `products / nnz`, so the
    // misses cost most when the input is neither sparse nor full.
    let probes = share(nnz, admitted, out_size);
    let hits = share(products, admitted, out_size);
    let mixed = share(
        share(probes, products, nnz),
        nnz.saturating_sub(products),
        nnz,
    );
    let pull_cost = v_nnz
        .saturating_add(admitted)
        .saturating_add(probes)
        .saturating_add(PULL_HIT.saturating_mul(hits))
        .saturating_add(PULL_MIXED.saturating_mul(mixed));
    // each plan with the view it walks; on a tie the first listed wins
    let plans = [
        (Chosen::Push, push_cost, fwd_col_side),
        (Chosen::Dense, dense_cost, fwd_col_side),
        (Chosen::Pull, pull_cost, !fwd_col_side),
    ];
    let priced = |p: &&(Chosen, usize, bool)| p.1.saturating_add(penalties[usize::from(p.2)]);
    let cheapest = plans.iter().min_by_key(priced).expect("three plans");
    let best = priced(&cheapest);
    // Rent or buy the missing view: a plan that only its view's penalty
    // kept from winning adds the gap to the store's regret for that view,
    // and once the regret reaches the penalty the view is bought — the
    // plan is taken and walking it builds the view. Deterministic ski
    // rental: never more than twice the cheaper of never converting and
    // converting at once.
    let renting = plans
        .iter()
        .filter(|p| penalties[usize::from(p.2)] > 0)
        .min_by_key(|p| p.1);
    match renting {
        Some(&(plan, cost, side)) if cost < best && store.rent(side, best - cost) >= price => plan,
        _ => cheapest.0,
    }
}

/// `x · num / den` without overflow, `0` when `den` is.
fn share(x: usize, num: usize, den: usize) -> usize {
    (x as u128 * num as u128)
        .checked_div(den as u128)
        .map_or(0, |q| usize::try_from(q).unwrap_or(usize::MAX))
}

// Cost units for `choose`: one pull probe (an input lookup for one
// stored entry of an admitted row), ~2 ns on rmat16. Fitted against the
// forced-direction timings of every `vxm` that `grb-bench` runs — BFS
// levels on resident graphs and on fresh snapshots, the changed-distance
// SSSP rounds, the components rounds and the PageRank iteration — on two
// seeds, both with the reverse view built and with it still to build
// (EXPERIMENTS E12).
/// A sparse-accumulator product: gathered, stable-sorted, reduced.
const PUSH_PRODUCT: usize = 12;
/// A scattered product: a random store into the value array.
const DENSE_PRODUCT: usize = 2;
/// The scatter's walk of one frontier row.
const DENSE_ROW: usize = 7;
/// Output positions the scatter allocates and sweeps per unit.
const DENSE_OUTPUTS: usize = 2;
/// A masked scatter's probe of the mask for one product.
const DENSE_MASK: usize = 3;
/// A pull probe that finds a stored input: the product and its fold.
const PULL_HIT: usize = 1;
/// A pull probe whose hit or miss the branch predictor cannot guess.
const PULL_MIXED: usize = 2;
/// One stored entry or output of a CSR view a plan must first build
/// (a transposition costs 8–15 ns per entry on the `grb-bench` graphs,
/// 2-core Xeon).
const CONVERT: usize = 6;

/// Sparse-accumulator push, the plan for tiny frontiers: gather
/// `(output index, product)` pairs in frontier order, stable-sort by
/// output index (preserving frontier order within each), and reduce
/// adjacent duplicates left to right. It has no O(output) term and runs
/// serially — a frontier this small never pays for a fan-out.
fn push<A, V, D3, Mo, M>(
    rows: &Csr<A>,
    v: &SparseVec<V>,
    bits: &MaskBits,
    out_size: Index,
    mulf: &M,
    add: &Mo,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    Mo: Monoid<D3>,
    M: Fn(&A, &V) -> D3,
{
    let mut pairs: Vec<(Index, D3)> = Vec::new();
    for (i, x) in v.iter() {
        let (cols, vals) = rows.row(i);
        for (&j, a) in cols.iter().zip(vals) {
            // mask first: masked-out outputs never form a product
            if bits.admits(j) {
                pairs.push((j, mulf(a, x)));
            }
        }
    }
    pairs.sort_by_key(|&(j, _)| j);
    let mut idx: Vec<Index> = Vec::new();
    let mut out: Vec<D3> = Vec::new();
    for (j, prod) in pairs {
        if idx.last() == Some(&j) {
            let last = out.last_mut().expect("non-empty with last index");
            *last = add.apply(last, &prod);
        } else {
            idx.push(j);
            out.push(prod);
        }
    }
    SparseVec::from_sorted_parts(out_size, idx, out)
}

/// The positions of the sorted row `cols` whose index lies in `lo..hi`
/// — O(1) when the row sits wholly inside.
#[inline]
fn within(cols: &[Index], lo: Index, hi: Index) -> Range<usize> {
    let start = if lo == 0 {
        0
    } else {
        cols.partition_point(|&j| j < lo)
    };
    let end = if cols.last().is_some_and(|&j| j < hi) {
        cols.len()
    } else {
        cols.partition_point(|&j| j < hi)
    };
    start..end
}

/// The dense scatter over output range `lo..hi`: the first product for
/// an output is stored as is, later ones fold left in frontier order,
/// and a presence bitset marks the stored slots; sweeping it emits the
/// range in index order.
fn scatter_range<A, V, D3, Mo, M>(
    rows: &Csr<A>,
    v: &SparseVec<V>,
    bits: &MaskBits,
    lo: Index,
    hi: Index,
    mulf: &M,
    add: &Mo,
) -> (Vec<Index>, Vec<D3>)
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    Mo: Monoid<D3>,
    M: Fn(&A, &V) -> D3,
{
    let mut vals: Vec<D3> = vec![add.identity(); hi - lo];
    let mut seen = vec![0u64; (hi - lo).div_ceil(64)];
    let masked = !bits.admits_all();
    for (i, x) in v.iter() {
        let (cols, avals) = rows.row(i);
        let r = within(cols, lo, hi);
        for (&j, a) in cols[r.clone()].iter().zip(&avals[r]) {
            if masked && !bits.admits(j) {
                continue;
            }
            let k = j - lo;
            let prod = mulf(a, x);
            let (w, b) = (k / 64, 1u64 << (k % 64));
            if seen[w] & b == 0 {
                seen[w] |= b;
                vals[k] = prod;
            } else {
                vals[k] = add.apply(&vals[k], &prod);
            }
        }
    }
    let stored = seen.iter().map(|w| w.count_ones() as usize).sum();
    let mut idx = Vec::with_capacity(stored);
    let mut out = Vec::with_capacity(stored);
    for (w, &word) in seen.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let k = w * 64 + m.trailing_zeros() as usize;
            idx.push(lo + k);
            out.push(vals[k].clone());
            m &= m - 1;
        }
    }
    (idx, out)
}

/// The dense scatter (see [`scatter_range`]) over the forward rows of
/// `store`. In parallel it splits the *output* index range, one range
/// per worker, cut where the cached output-dimension degrees give each
/// range an equal share of the stored entries: every worker walks the
/// whole frontier in order, so each output's fold never crosses workers
/// and the concatenated ranges are bitwise the serial result. More
/// ranges than workers would only add frontier walks.
#[allow(clippy::too_many_arguments)] // dispatch-shape, mirrors pull
fn scatter<A, V, D3, Mo, M>(
    store: &MatrixStore<A>,
    fwd_col_side: bool,
    v: &SparseVec<V>,
    bits: &MaskBits,
    out_size: Index,
    products: usize,
    mulf: &M,
    add: &Mo,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    Mo: Monoid<D3>,
    M: Fn(&A, &V) -> D3 + Sync,
{
    let rows = &view(store, fwd_col_side);
    let eval = |lo: Index, hi: Index| scatter_range(rows, v, bits, lo, hi, mulf, add);
    // every range re-walks the whole frontier, so only the products
    // beyond a few per frontier row are worth splitting
    if par::plan(out_size, products.saturating_sub(8 * v.nvals())).is_some() {
        let out_deg = if fwd_col_side {
            store.row_degrees()
        } else {
            store.col_degrees()
        };
        let bounds = balanced_bounds(&out_deg, par::effective_parallelism());
        let ranges = bounds.len() - 1;
        let plan = par::Plan {
            chunks: ranges,
            span: 1,
        };
        let parts = par::run_chunks(ranges, plan, |c, _| eval(bounds[c], bounds[c + 1]));
        return concat(out_size, parts);
    }
    let (idx, out) = eval(0, out_size);
    SparseVec::from_sorted_parts(out_size, idx, out)
}

/// Cut `0..deg.len()` into at most `k` contiguous ranges holding about
/// equal shares of `deg`'s total; returns the range bounds, first `0`,
/// last `deg.len()`.
fn balanced_bounds(deg: &[usize], k: usize) -> Vec<Index> {
    let total: usize = deg.iter().sum();
    let mut bounds = vec![0];
    let mut acc = 0usize;
    for (j, &d) in deg.iter().enumerate() {
        acc += d;
        if bounds.len() < k && acc.saturating_mul(k) >= total.saturating_mul(bounds.len()) {
            bounds.push(j + 1);
        }
    }
    if bounds.last() != Some(&deg.len()) {
        bounds.push(deg.len());
    }
    bounds
}

/// Concatenate per-range results that arrive in index order.
fn concat<D3: Scalar>(out_size: Index, parts: Vec<(Vec<Index>, Vec<D3>)>) -> SparseVec<D3> {
    let mut idx = Vec::new();
    let mut out = Vec::new();
    for (i, o) in parts {
        idx.extend(i);
        out.extend(o);
    }
    SparseVec::from_sorted_parts(out_size, idx, out)
}

/// The input vector scattered for O(1) probes by index.
fn dense_input<V: Scalar>(v: &SparseVec<V>) -> Vec<Option<&V>> {
    let mut dense = vec![None; v.size()];
    for (k, x) in v.iter() {
        dense[k] = Some(x);
    }
    dense
}

/// Fold `prod` into a pull accumulator — the first product stored as
/// is, later ones folded left — and report whether the accumulator is
/// now terminal, after which no further product can change it.
#[inline]
fn fold<D3: Scalar, Mo: Monoid<D3>>(acc: &mut Option<D3>, prod: D3, add: &Mo) -> bool {
    let next = match acc.take() {
        Some(y) => add.apply(&y, &prod),
        None => prod,
    };
    let terminal = add.is_terminal(&next);
    *acc = Some(next);
    terminal
}

/// Pull: one merge-walk per admitted output over the reverse-oriented
/// rows, probing the dense-scattered input in O(1) and accumulating in
/// ascending stored-index (= input-index) order, the same left fold as
/// push and the scatter.
#[allow(clippy::too_many_arguments)] // dispatch-shape, mirrors scatter
fn pull<A, V, D3, Mo, M>(
    rows: &Csr<A>,
    v: &SparseVec<V>,
    mask: &MaskVec,
    bits: &MaskBits,
    out_size: Index,
    nnz: usize,
    mulf: &M,
    add: &Mo,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    Mo: Monoid<D3>,
    M: Fn(&A, &V) -> D3 + Sync,
{
    let v_dense = &dense_input(v);
    let probe = |j: Index| {
        let mut acc: Option<D3> = None;
        let (cols, vals) = rows.row(j);
        for (&i, a) in cols.iter().zip(vals) {
            if let Some(x) = v_dense[i] {
                if fold(&mut acc, mulf(a, x), add) {
                    break;
                }
            }
        }
        acc
    };
    // a non-complement pattern expands *only* its admitted outputs (its
    // indices are sorted, so the result assembles in order); no mask or a
    // complement one walks every output, skipping excluded ones before
    // they are expanded
    let (outputs, work) = match mask {
        MaskVec::Pattern {
            indices,
            complement: false,
        } => (Some(&indices[..]), nnz.min(indices.len().saturating_mul(8))),
        _ => (None, nnz),
    };
    let work = work + v.nvals();
    let len = outputs.map_or(out_size, <[Index]>::len);
    let eval = |lo: usize, hi: usize| {
        let mut idx = Vec::with_capacity(hi - lo);
        let mut out = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let j = outputs.map_or(k, |o| o[k]);
            if !bits.admits(j) {
                continue;
            }
            if let Some(acc) = probe(j) {
                idx.push(j);
                out.push(acc);
            }
        }
        (idx, out)
    };
    if let Some(plan) = par::plan(len, work) {
        let parts = par::run_chunks(len, plan, eval);
        return concat(out_size, parts);
    }
    let (idx, out) = eval(0, len);
    SparseVec::from_sorted_parts(out_size, idx, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semiring::{lor_land, min_plus, plus_times};
    use crate::exec::take_notes;
    use crate::storage::engine::FormatPolicy;
    use std::sync::{Mutex, MutexGuard};

    /// The direction override is process-wide: every test here that
    /// forces one, or asserts what Auto picks, holds this lock.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn store() -> MatrixStore<i32> {
        // [ 1 2 . ]
        // [ . 3 4 ]
        // [ 5 . 6 ]
        MatrixStore::csr(Csr::from_sorted_tuples(
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
        ))
    }

    /// The slab and the default 4 × 4 tile grid.
    const POLICIES: [FormatPolicy; 2] =
        [FormatPolicy::Auto, FormatPolicy::Tiled { rows: 4, cols: 4 }];

    fn all_directions() -> [Direction; 3] {
        [Direction::Push, Direction::Pull, Direction::Dense]
    }

    #[test]
    fn directions_agree_for_vxm_and_mxv() {
        let _serial = serial();
        let sr = plus_times::<i32>();
        let v = SparseVec::from_sorted_parts(3, vec![0, 2], vec![10, 30]);
        for transposed in [false, true] {
            for fmt in POLICIES {
                let st = store().apply_policy(fmt);
                let masks = [
                    MaskVec::All,
                    MaskVec::Pattern {
                        indices: vec![1, 2],
                        complement: false,
                    },
                    MaskVec::Pattern {
                        indices: vec![0],
                        complement: true,
                    },
                ];
                for mask in &masks {
                    let base: SparseVec<i32> =
                        with_direction(Direction::Dense, || vxm(&sr, &v, &st, transposed, mask));
                    for d in all_directions() {
                        let got = with_direction(d, || vxm(&sr, &v, &st, transposed, mask));
                        assert_eq!(got, base, "vxm {fmt:?} t={transposed} {d:?}");
                    }
                    let base: SparseVec<i32> =
                        with_direction(Direction::Dense, || mxv(&sr, &st, &v, transposed, mask));
                    for d in all_directions() {
                        let got = with_direction(d, || mxv(&sr, &st, &v, transposed, mask));
                        assert_eq!(got, base, "mxv {fmt:?} t={transposed} {d:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_computes_plus_times_and_min_plus() {
        let _serial = serial();
        let v = SparseVec::from_dense(&[10, 20, 30]);
        let w: SparseVec<i32> = with_direction(Direction::Dense, || {
            vxm(&plus_times::<i32>(), &v, &store(), false, &MaskVec::All)
        });
        assert_eq!(w.to_tuples(), vec![(0, 160), (1, 80), (2, 260)]);
        // one Bellman-Ford relaxation: dist' = dist min.+ A
        let adj = MatrixStore::csr(Csr::from_sorted_tuples(
            3,
            3,
            vec![(0, 1, 2i64), (0, 2, 10), (1, 2, 3)],
        ));
        let dist = SparseVec::from_sorted_parts(3, vec![0, 1], vec![0i64, 2]);
        let relaxed: SparseVec<i64> = with_direction(Direction::Dense, || {
            vxm(&min_plus::<i64>(), &dist, &adj, false, &MaskVec::All)
        });
        assert_eq!(relaxed.to_tuples(), vec![(1, 2), (2, 5)]);
    }

    /// Reference `v^T ⊕.⊗ A` over a dense product table, folding each
    /// output left in ascending input order.
    fn oracle(
        n: usize,
        a: &[(usize, usize, i64)],
        v: &[(usize, i64)],
        mask: &MaskVec,
    ) -> Vec<(usize, i64)> {
        let bits = MaskBits::new(mask, n);
        let mut acc: Vec<Option<i64>> = vec![None; n];
        for &(i, x) in v {
            for &(r, c, y) in a {
                if r == i && bits.admits(c) {
                    let p = x * y;
                    acc[c] = Some(acc[c].map_or(p, |s| s + p));
                }
            }
        }
        acc.into_iter()
            .enumerate()
            .filter_map(|(j, s)| s.map(|s| (j, s)))
            .collect()
    }

    /// Output sizes on either side of a 64-bit word, every direction,
    /// serial and chunked, against the oracle — including the empty
    /// frontier, a complement mask that admits nothing and a mask that
    /// holds only the last index.
    #[test]
    fn bitset_word_edges_agree_with_oracle() {
        let _serial = serial();
        let sr = plus_times::<i64>();
        for n in [63usize, 64, 65] {
            // every row hits the last column and its own neighbourhood
            let mut a: Vec<(usize, usize, i64)> = Vec::new();
            for i in 0..n {
                for j in [i.saturating_sub(1), i, (i + 1) % n, n - 1] {
                    a.push((i, j, (i * 7 + j) as i64 % 11 + 1));
                }
            }
            a.sort_unstable();
            a.dedup_by_key(|t| (t.0, t.1));
            let full: Vec<(usize, i64)> = (0..n).map(|i| (i, i as i64 - 20)).collect();
            let frontiers = [vec![], vec![(n - 1, 3)], full];
            let masks = [
                MaskVec::All,
                MaskVec::Pattern {
                    indices: (0..n).collect(),
                    complement: true,
                },
                MaskVec::Pattern {
                    indices: vec![n - 1],
                    complement: false,
                },
                MaskVec::Pattern {
                    indices: vec![0, 63.min(n - 1), n - 1],
                    complement: true,
                },
            ];
            for fmt in POLICIES {
                let st =
                    MatrixStore::csr(Csr::from_sorted_tuples(n, n, a.clone())).apply_policy(fmt);
                for f in &frontiers {
                    let (fi, fv): (Vec<usize>, Vec<i64>) = f.iter().copied().unzip();
                    let v = SparseVec::from_sorted_parts(n, fi, fv);
                    for mask in &masks {
                        let want = oracle(n, &a, f, mask);
                        for d in all_directions() {
                            for k in [1, 2, 8] {
                                let got: SparseVec<i64> = par::with_cost_model(1, 0, || {
                                    par::with_parallelism(k, || {
                                        with_direction(d, || vxm(&sr, &v, &st, false, mask))
                                    })
                                });
                                assert_eq!(
                                    got.to_tuples(),
                                    want,
                                    "n={n} {fmt:?} {d:?} k={k} {mask:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// LOR's terminal `true` ends a pull row early; the answer matches
    /// every other direction.
    #[test]
    fn terminal_early_exit_is_invisible() {
        let _serial = serial();
        let n = 70;
        let a: Vec<(usize, usize, bool)> = (0..n)
            .flat_map(|i| {
                (0..n)
                    .filter(move |j| (i + j) % 3 != 0)
                    .map(move |j| (i, j, (i * j) % 5 != 0))
            })
            .collect();
        let v =
            SparseVec::from_sorted_parts(n, (0..n).collect(), (0..n).map(|i| i % 4 != 0).collect());
        for transposed in [false, true] {
            // w(j) = ∨_i v(i) ∧ op(A)(i, j), stored wherever a product exists
            let mut want: Vec<Option<bool>> = vec![None; n];
            for &(r, c, x) in &a {
                let (i, j) = if transposed { (c, r) } else { (r, c) };
                let p = v.get(i).is_some_and(|y| *y) && x;
                want[j] = Some(want[j].unwrap_or(false) || p);
            }
            let want: Vec<(usize, bool)> = want
                .into_iter()
                .enumerate()
                .filter_map(|(j, w)| w.map(|w| (j, w)))
                .collect();
            for fmt in POLICIES {
                let st =
                    MatrixStore::csr(Csr::from_sorted_tuples(n, n, a.clone())).apply_policy(fmt);
                for d in all_directions() {
                    let got: SparseVec<bool> =
                        with_direction(d, || vxm(&lor_land(), &v, &st, transposed, &MaskVec::All));
                    assert_eq!(got.to_tuples(), want, "{fmt:?} t={transposed} {d:?}");
                }
            }
        }
    }

    #[test]
    fn empty_frontier_pushes_nothing() {
        let _serial = serial();
        let sr = lor_land();
        let st = MatrixStore::csr(Csr::from_sorted_tuples(
            4,
            4,
            vec![(0, 1, true), (2, 3, true)],
        ));
        let v = SparseVec::<bool>::empty(4);
        let w: SparseVec<bool> = vxm(&sr, &v, &st, false, &MaskVec::All);
        assert_eq!(w.nvals(), 0);
        assert_eq!(take_notes().direction, Some("push"));
    }

    #[test]
    fn heuristic_pushes_sparse_frontiers_and_pulls_dense_ones() {
        let _serial = serial();
        // an undirected ring: every vertex has degree 2, and the value
        // is symmetric so the pull side's transpose is free
        let n = 512;
        let mut edges: Vec<(usize, usize, bool)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n, true), ((i + 1) % n, i, true)])
            .collect();
        edges.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let st = MatrixStore::csr(Csr::from_sorted_tuples(n, n, edges));
        let sr = lor_land();
        // one-vertex frontier: push, and never touch the transpose
        let v = SparseVec::from_sorted_parts(n, vec![0], vec![true]);
        let _: SparseVec<bool> = vxm(&sr, &v, &st, false, &MaskVec::All);
        assert_eq!(take_notes().direction, Some("push"));
        assert!(
            !st.csr_view_ready(true),
            "push must not build the transpose"
        );
        // half-full frontier against a nearly-exhausted complement mask:
        // pull once the admitted set is small
        let frontier: Vec<Index> = (0..n / 2).collect();
        let vals = vec![true; n / 2];
        let v = SparseVec::from_sorted_parts(n, frontier, vals);
        let visited: Vec<Index> = (0..n - 4).collect();
        let mask = MaskVec::Pattern {
            indices: visited,
            complement: true,
        };
        let _: SparseVec<bool> = vxm(&sr, &v, &st, false, &mask);
        assert_eq!(take_notes().direction, Some("pull"));
    }

    #[test]
    fn dense_inputs_take_the_dense_kernel() {
        let _serial = serial();
        // a directed band, 16 entries a row: a full frontier, no mask and
        // no reverse view — the scatter's case
        let n = 256;
        let mut band: Vec<(usize, usize, i32)> = (0..n)
            .flat_map(|i| (i + 1..i + 17).map(move |j| (i, j % n, 1)))
            .collect();
        band.sort_unstable();
        let st = MatrixStore::csr(Csr::from_sorted_tuples(n, n, band));
        let v = SparseVec::full(n, 2);
        let _: SparseVec<i32> = vxm(&plus_times::<i32>(), &v, &st, false, &MaskVec::All);
        assert_eq!(take_notes().direction, Some("dense"));
        assert!(!st.csr_view_ready(true), "the scatter needs no transpose");
    }

    /// A uniform random digraph, about `deg` out-edges a vertex: bitwise
    /// asymmetric, so its reverse view costs a real transposition.
    fn digraph(n: usize, deg: usize) -> Vec<(usize, usize, f64)> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut edges: Vec<(usize, usize, f64)> = (0..n * deg)
            .map(|e| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (e / deg, (x % n as u64) as usize, 1.0)
            })
            .collect();
        edges.sort_unstable_by_key(|&(i, j, _)| (i, j));
        edges.dedup_by_key(|t| (t.0, t.1));
        edges
    }

    /// The penalty `choose` charges for building one view of `st`.
    fn price<A: Scalar>(st: &MatrixStore<A>) -> usize {
        CONVERT * (st.nvals() + st.nrows())
    }

    /// PageRank's `vxm`: a full input and no mask on a resident store.
    /// Each call scatters and adds its regret until the regret reaches
    /// the penalty; that call pulls and builds `A^T`, and every later one
    /// pulls over it without adding regret. A tile grid rents and buys at
    /// the same call as the slab.
    #[test]
    fn resident_store_buys_the_reverse_view_once_regret_pays_for_it() {
        let _serial = serial();
        let n = 2048;
        let (sr, v) = (plus_times::<f64>(), SparseVec::full(n, 0.5));
        let mut crossings = Vec::new();
        for fmt in POLICIES {
            let st =
                MatrixStore::csr(Csr::from_sorted_tuples(n, n, digraph(n, 8))).apply_policy(fmt);
            let mut calls = 0;
            loop {
                let before = st.rent(true, 0);
                let _: SparseVec<f64> = vxm(&sr, &v, &st, false, &MaskVec::All);
                calls += 1;
                let after = st.rent(true, 0);
                if after < price(&st) {
                    assert!(after > before, "{fmt:?} call {calls} added no regret");
                    let dir = take_notes().direction;
                    assert_eq!(dir, Some("dense"), "{fmt:?} call {calls}");
                    assert!(!st.csr_view_ready(true), "{fmt:?} call {calls} built A^T");
                } else {
                    let dir = take_notes().direction;
                    assert_eq!(dir, Some("pull"), "{fmt:?} crossing call {calls}");
                    assert!(st.csr_view_ready(true), "{fmt:?} crossing call {calls}");
                    break;
                }
            }
            assert!(calls > 1, "{fmt:?}: one call must not pay for the view");
            let paid = st.rent(true, 0);
            for _ in 0..3 {
                let _: SparseVec<f64> = vxm(&sr, &v, &st, false, &MaskVec::All);
                assert_eq!(take_notes().direction, Some("pull"), "{fmt:?}");
            }
            assert_eq!(
                st.rent(true, 0),
                paid,
                "{fmt:?}: a bought view accrues no regret"
            );
            crossings.push(calls);
        }
        assert_eq!(
            crossings[0], crossings[1],
            "slab and tile grid buy at one call"
        );
    }

    /// A write installs a fresh store: no view, no regret.
    #[test]
    fn a_written_store_starts_with_zero_regret() {
        let _serial = serial();
        let n = 512;
        let a = crate::object::matrix::Matrix::from_tuples(n, n, &digraph(n, 8)).unwrap();
        let st = a.handle.forced_storage().unwrap();
        let v = SparseVec::full(n, 0.5);
        let _: SparseVec<f64> = vxm(&plus_times::<f64>(), &v, &st, false, &MaskVec::All);
        assert!(st.rent(true, 0) > 0, "the scatter should have added regret");
        a.set(0, 0, 2.0).unwrap();
        a.wait().unwrap();
        let fresh = a.handle.forced_storage().unwrap();
        assert!(!Arc::ptr_eq(&st, &fresh), "the write installs a new store");
        assert_eq!(fresh.rent(true, 0), 0);
        assert!(!fresh.csr_view_ready(true));
    }

    /// One BFS on a fresh store (a snapshot's single query): its dense
    /// middle levels add regret, but less than the penalty, so the
    /// traversal never transposes the matrix, slab or tile grid.
    #[test]
    fn one_bfs_on_a_fresh_store_stays_below_the_penalty() {
        let _serial = serial();
        let n = 4096;
        let tuples: Vec<(usize, usize, bool)> = digraph(n, 8)
            .into_iter()
            .map(|(i, j, _)| (i, j, true))
            .collect();
        for fmt in POLICIES {
            let st =
                MatrixStore::csr(Csr::from_sorted_tuples(n, n, tuples.clone())).apply_policy(fmt);
            let mut frontier = SparseVec::from_sorted_parts(n, vec![0], vec![true]);
            let mut visited = vec![0];
            while frontier.nvals() > 0 {
                let mask = MaskVec::Pattern {
                    indices: visited.clone(),
                    complement: true,
                };
                frontier = vxm(&lor_land(), &frontier, &st, false, &mask);
                visited.extend_from_slice(frontier.indices());
                visited.sort_unstable();
            }
            assert!(
                visited.len() > n / 2,
                "{fmt:?}: the BFS should reach most of the graph"
            );
            let regret = st.rent(true, 0);
            assert!(regret > 0, "{fmt:?}: the peak levels should add regret");
            assert!(regret < price(&st), "{fmt:?}: {regret} of {}", price(&st));
            assert!(
                !st.csr_view_ready(true),
                "{fmt:?}: one BFS must not transpose A"
            );
        }
    }

    #[test]
    fn override_restores_on_exit() {
        let _serial = serial();
        assert_eq!(crate::options::direction(), Direction::Auto);
        with_direction(Direction::Pull, || {
            assert_eq!(crate::options::direction(), Direction::Pull);
        });
        assert_eq!(crate::options::direction(), Direction::Auto);
    }
}
