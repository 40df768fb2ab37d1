//! Direction-optimized SpMSpV: one dispatch point for `vxm`/`mxv` that
//! picks, per operation, between three bitwise-identical evaluation
//! strategies:
//!
//! * **push** — a sparse-accumulator scatter from the stored entries of
//!   the input vector through the forward-oriented CSR (the SpMSpV of
//!   the "parallel hypersparse" line of work): work is proportional to
//!   the frontier's outgoing edges, not the matrix;
//! * **pull** — a merge-walk per *admitted* output index over the
//!   reverse-oriented CSR (or the bitmap fast path), with
//!   complement-structural-mask awareness so masked-out rows are never
//!   expanded;
//! * **dense** — for `vxm`, the dense-accumulator scatter in
//!   [`crate::kernel::mxv`], the choice for dense inputs; `mxv` serves
//!   dense from the pull implementation.
//!
//! The choice is driven by the per-store property cache
//! ([`MatrixStore::row_degrees`] / [`MatrixStore::col_degrees`]): the
//! push cost is the *exact* number of products (the sum of cached
//! forward degrees over the frontier), the pull cost is the admitted
//! fraction of the matrix plus a one-time conversion penalty when the
//! reverse view is not yet materialized. This is the LAGraph-style
//! direction switch: push on sparse frontiers, pull near the dense peak.
//!
//! **Determinism contract.** All three strategies accumulate each output
//! element's contributions in ascending input-index order with the same
//! left-fold association, and the parallel push path merges its chunk
//! results in chunk (= frontier) order — so push ≡ pull ≡ dense
//! *bitwise* (NaN payloads, signed zeros and all) at every parallelism
//! degree, the same contract the chunked kernels already honor.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::algebra::binary::BinaryOp;
use crate::algebra::semiring::Semiring;
use crate::index::Index;
#[cfg(feature = "parallel")]
use crate::kernel::par;
use crate::kernel::util::{map_rows, map_rows_init};
use crate::mask::MaskVec;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::{Bitmap, Layout, MatrixStore};
use crate::storage::tiled::{self, OrientedTiles, RowCursor, Tiled};
use crate::storage::vec::SparseVec;

/// Evaluation strategy for one matrix–vector product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Let the cost model decide (the default).
    Auto,
    /// Force the sparse-accumulator push (scatter) path.
    Push,
    /// Force the per-output merge-walk pull path.
    Pull,
    /// Force the pre-direction-optimization dense kernels.
    Dense,
}

/// Process-wide direction override, `0 = Auto`. A global (not a
/// thread-local) on purpose: kernels run on the scheduler's worker
/// threads, and the equivalence tests and the E12 baseline need the
/// forced direction to reach them.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn encode(d: Direction) -> u8 {
    match d {
        Direction::Auto => 0,
        Direction::Push => 1,
        Direction::Pull => 2,
        Direction::Dense => 3,
    }
}

/// The currently forced direction, if any.
pub fn direction_override() -> Direction {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Direction::Push,
        2 => Direction::Pull,
        3 => Direction::Dense,
        _ => Direction::Auto,
    }
}

/// Run `f` with the direction forced process-wide (restored on exit,
/// panic included). Intended for tests and benchmarks; concurrent
/// callers forcing *different* directions race and must serialize
/// themselves.
pub fn with_direction<R>(d: Direction, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.swap(encode(d), Ordering::Relaxed);
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

thread_local! {
    /// Direction taken by the most recent dispatch on this thread; the
    /// scheduler drains it into the trace after each node compute.
    static CHOSEN: std::cell::Cell<Option<&'static str>> =
        const { std::cell::Cell::new(None) };
}

fn note_direction(d: &'static str) {
    CHOSEN.with(|c| c.set(Some(d)));
}

/// Drain the direction note accumulated on this thread since the last
/// call (the scheduler calls this right after each node compute).
pub fn take_direction() -> Option<&'static str> {
    CHOSEN.with(|c| c.take())
}

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
    let add = sr.add();
    let mul = sr.mul();
    // core closures take (matrix value, vector value); vxm multiplies
    // vector-first per Table II
    let mulf = |a: &D2, x: &D1| mul.apply(x, a);
    let addf = |x: &D3, y: &D3| add.apply(x, y);
    let out_size = if transposed {
        store.nrows()
    } else {
        store.ncols()
    };
    // forward view: rows indexed by the input dimension
    let fwd_deg = if transposed {
        store.col_degrees()
    } else {
        store.row_degrees()
    };
    let bitmap_pull = transposed && matches!(store.layout(), Layout::Bitmap(_));
    let dir = choose(
        store,
        v,
        transposed,
        &fwd_deg,
        mask,
        out_size,
        bitmap_pull,
        true,
    );
    match dir {
        Chosen::Push => {
            note_direction("push");
            // tiled stores push through per-tile views instead of an
            // assembled slab — same frontier walk, segmented rows
            if let Layout::Tiled(t) = store.layout() {
                return push_tiled(t, transposed, v, mask, out_size, &fwd_deg, &mulf, &addf);
            }
            let fwd = oriented(store, transposed);
            push(&fwd, v, mask, out_size, &mulf, &addf)
        }
        Chosen::Pull => {
            note_direction("pull");
            // reverse view: rows indexed by the output dimension. When
            // the transpose descriptor is set the output dimension is
            // A's native row dimension, so a bitmap store pulls
            // directly from its presence words.
            if transposed {
                if let Layout::Bitmap(b) = store.layout() {
                    return pull_bitmap(b, v, mask, &mulf, &addf);
                }
            }
            if let Layout::Tiled(t) = store.layout() {
                if !wide_pull(mask, out_size) && !store.csr_view_ready(!transposed) {
                    return pull_tiled(t, !transposed, v, mask, &mulf, &addf);
                }
            }
            let rev = oriented(store, !transposed);
            pull(&rev, v, mask, &mulf, &addf)
        }
        Chosen::Dense => {
            note_direction("dense");
            let fwd = oriented(store, transposed);
            crate::kernel::mxv::vxm(sr, v, &fwd, mask)
        }
    }
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
    let add = sr.add();
    let mul = sr.mul();
    // mxv multiplies matrix-first per Table II
    let mulf = |a: &D1, x: &D2| mul.apply(a, x);
    let addf = |x: &D3, y: &D3| add.apply(x, y);
    let out_size = if transposed {
        store.ncols()
    } else {
        store.nrows()
    };
    // forward view for mxv: rows indexed by the *input* dimension, i.e.
    // A's columns when untransposed
    let fwd_deg = if transposed {
        store.row_degrees()
    } else {
        store.col_degrees()
    };
    // the reverse (pull) orientation is A's native row orientation when
    // untransposed — where the bitmap fast path applies
    let bitmap_pull = !transposed && matches!(store.layout(), Layout::Bitmap(_));
    let dir = choose(
        store,
        v,
        !transposed,
        &fwd_deg,
        mask,
        out_size,
        bitmap_pull,
        false,
    );
    match dir {
        Chosen::Push => {
            note_direction("push");
            if let Layout::Tiled(t) = store.layout() {
                return push_tiled(t, !transposed, v, mask, out_size, &fwd_deg, &mulf, &addf);
            }
            let fwd = oriented(store, !transposed);
            push(&fwd, v, mask, out_size, &mulf, &addf)
        }
        Chosen::Pull | Chosen::Dense => {
            // pull already is the dense-input strategy for mxv (with the
            // bitmap fast path), so Dense and Pull share an implementation
            note_direction(if dir == Chosen::Pull { "pull" } else { "dense" });
            if !transposed {
                if let Layout::Bitmap(b) = store.layout() {
                    return pull_bitmap(b, v, mask, &mulf, &addf);
                }
            }
            if let Layout::Tiled(t) = store.layout() {
                if !wide_pull(mask, out_size) && !store.csr_view_ready(transposed) {
                    return pull_tiled(t, transposed, v, mask, &mulf, &addf);
                }
            }
            let rev = oriented(store, transposed);
            pull(&rev, v, mask, &mulf, &addf)
        }
    }
}

/// Whether a pull would walk at least half the output dimension — the
/// full-sweep shape (O(1) from the mask). A *wide* pull over a tiled
/// store re-pays the per-segment gather overhead on most rows every
/// call, so it is served from the store's memoized assembled reverse
/// view instead (one slab assembly per store — the same conversion
/// penalty a slab store pays for its missing orientation — then
/// slab-speed merge-walks for the store's lifetime). Narrow pulls keep
/// the native tile walk and never force assembly. Both routes fold in
/// ascending stored-index order, so the choice is bitwise invisible
/// (`tests/tiled_equivalence.rs`).
fn wide_pull(mask: &MaskVec, out_size: Index) -> bool {
    let admitted = match mask {
        MaskVec::All => out_size,
        MaskVec::Pattern {
            indices,
            complement: false,
        } => indices.len(),
        MaskVec::Pattern {
            indices,
            complement: true,
        } => out_size.saturating_sub(indices.len()),
    };
    admitted * 2 >= out_size
}

/// The CSR view with rows indexed by A's columns (`col_side = true`) or
/// rows (`false`).
fn oriented<T: Scalar>(store: &MatrixStore<T>, col_side: bool) -> Arc<Csr<T>> {
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
/// CSR the push path needs (`true` = A's column orientation), so the
/// conversion penalties land on the right side of the comparison;
/// `bitmap_pull` marks a pull path that reads the bitmap directly and
/// needs no CSR at all; `dense_on_fwd` says which orientation the
/// Dense fallback reads (`vxm`'s legacy kernel walks the forward view,
/// `mxv`'s is the reverse merge-walk).
#[allow(clippy::too_many_arguments)] // two callers, both internal dispatchers
fn choose<A: Scalar, V: Scalar>(
    store: &MatrixStore<A>,
    v: &SparseVec<V>,
    fwd_col_side: bool,
    fwd_deg: &Arc<[usize]>,
    mask: &MaskVec,
    out_size: Index,
    bitmap_pull: bool,
    dense_on_fwd: bool,
) -> Chosen {
    match direction_override() {
        Direction::Push => return Chosen::Push,
        Direction::Pull => return Chosen::Pull,
        Direction::Dense => return Chosen::Dense,
        Direction::Auto => {}
    }
    let v_nnz = v.nvals();
    if v_nnz == 0 {
        // nothing to scatter; push is the trivially empty plan
        return Chosen::Push;
    }
    let nnz = store.nvals();
    // exact number of products the push path will form
    let push_products: usize = v.indices().iter().map(|&i| fwd_deg[i]).sum();
    // a view is free when it is already materialized — or when the row
    // view is and the value is (bitwise) symmetric, because `col_csr`
    // then *shares* the row view instead of transposing. The symmetry
    // probe only runs when the row view is itself free, so costing a
    // plan never triggers the very conversion being costed. A tiled
    // store serves both orientations through per-tile views (a touched
    // tile transposes lazily, amortized per tile), so neither side pays
    // the whole-slab conversion penalty.
    let is_tiled = matches!(store.layout(), Layout::Tiled(_));
    let fwd_ready = is_tiled
        || store.csr_view_ready(fwd_col_side)
        || (store.csr_view_ready(false) && store.is_symmetric());
    let fwd_penalty = if fwd_ready { 0 } else { nnz + out_size };
    // the sparse accumulator sorts and reduces what it gathers — charge
    // the products twice; the dense accumulator instead pays an
    // O(out_size) scatter plane, which is why near-dense inputs
    // (PageRank's iterate, peak BFS frontiers without a usable mask)
    // fall back to the pre-PR kernels
    let push_cost = push_products.saturating_mul(2).saturating_add(fwd_penalty);
    // the complement-structural-mask-aware part: only admitted outputs
    // are ever expanded, so the pull cost scales with the admitted
    // fraction, not the matrix
    let admitted = match mask {
        MaskVec::All => out_size,
        MaskVec::Pattern {
            indices,
            complement: false,
        } => indices.len(),
        MaskVec::Pattern {
            indices,
            complement: true,
        } => out_size.saturating_sub(indices.len()),
    };
    // the reverse view is free when it is already materialized, when
    // the pull path reads the bitmap directly, or via the same symmetry
    // sharing as the forward side
    let rev_ready = bitmap_pull
        || is_tiled
        || store.csr_view_ready(!fwd_col_side)
        || (store.csr_view_ready(false) && store.is_symmetric());
    let rev_penalty = if rev_ready { 0 } else { nnz + out_size };
    let pull_cost = v_nnz
        .saturating_add(admitted)
        .saturating_add(
            nnz.checked_div(out_size)
                .unwrap_or(0)
                .saturating_mul(admitted),
        )
        .saturating_add(rev_penalty);
    let dense_cost = push_products
        .saturating_add(out_size)
        .saturating_add(if dense_on_fwd {
            fwd_penalty
        } else {
            rev_penalty
        });
    if pull_cost < push_cost && pull_cost < dense_cost {
        Chosen::Pull
    } else if push_cost <= dense_cost {
        Chosen::Push
    } else {
        Chosen::Dense
    }
}

/// Sparse-accumulator push over frontier positions `lo..hi`: gather
/// `(output index, product)` pairs in frontier order, stable-sort by
/// output index (preserving frontier order within each), and reduce
/// adjacent duplicates left-to-right — ascending-input-index
/// accumulation, same as every other path.
#[allow(clippy::too_many_arguments)] // chunk-span shape, mirrors kernel::par callees
fn push_gather<A, V, D3, M, R>(
    fwd: &Csr<A>,
    vi: &[Index],
    vv: &[V],
    mask: &MaskVec,
    lo: usize,
    hi: usize,
    mulf: &M,
    addf: &R,
) -> (Vec<Index>, Vec<D3>)
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3,
    R: Fn(&D3, &D3) -> D3,
{
    let mut pairs: Vec<(Index, D3)> = Vec::new();
    for p in lo..hi {
        let (cols, vals) = fwd.row(vi[p]);
        for (j, a) in cols.iter().zip(vals) {
            // mask first: masked-out outputs never form a product, the
            // same contract the dense kernel keeps
            if !mask.admits(*j) {
                continue;
            }
            pairs.push((*j, mulf(a, &vv[p])));
        }
    }
    reduce_pairs(pairs, addf)
}

/// Stable-sort gathered `(output index, product)` pairs and reduce
/// adjacent duplicates left-to-right — the shared tail of the slab and
/// tiled push gathers. Stability keeps frontier order within each
/// output index, so accumulation stays in ascending input-index order.
fn reduce_pairs<D3, R>(mut pairs: Vec<(Index, D3)>, addf: &R) -> (Vec<Index>, Vec<D3>)
where
    D3: Scalar,
    R: Fn(&D3, &D3) -> D3,
{
    pairs.sort_by_key(|&(j, _)| j); // stable sort: frontier order survives
    let mut idx: Vec<Index> = Vec::new();
    let mut out: Vec<D3> = Vec::new();
    for (j, prod) in pairs {
        if idx.last() == Some(&j) {
            let last = out.last_mut().expect("non-empty with last index");
            *last = addf(last, &prod);
        } else {
            idx.push(j);
            out.push(prod);
        }
    }
    (idx, out)
}

/// The tiled analog of [`push_gather`]: each frontier row's entries are
/// drawn from the stripe's tiles left-to-right, so pairs are gathered in
/// ascending global output order within each frontier position — the
/// same order a slab row yields.
#[allow(clippy::too_many_arguments)] // chunk-span shape, mirrors push_gather
fn push_gather_tiled<A, V, D3, M, R>(
    ot: &OrientedTiles<'_, A>,
    vi: &[Index],
    vv: &[V],
    mask: &MaskVec,
    lo: usize,
    hi: usize,
    mulf: &M,
    addf: &R,
) -> (Vec<Index>, Vec<D3>)
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3,
    R: Fn(&D3, &D3) -> D3,
{
    let mut pairs: Vec<(Index, D3)> = Vec::new();
    // frontier indices are sorted, so the cursor's stripe cache hits
    let mut cur = ot.cursor();
    for p in lo..hi {
        cur.for_row(vi[p], &mut |off, cols, vals| {
            for (j, a) in cols.iter().zip(vals) {
                let g = off + j;
                if !mask.admits(g) {
                    continue;
                }
                pairs.push((g, mulf(a, &vv[p])));
            }
        });
    }
    reduce_pairs(pairs, addf)
}

/// Push over a tiled store: the frontier walk of [`push`], reading rows
/// through lazily materialized per-tile views (`col_side` picks the
/// orientation) — only tiles the frontier actually touches convert.
#[allow(clippy::too_many_arguments)] // dispatch-shape, mirrors push
fn push_tiled<A, V, D3, M, R>(
    t: &Tiled<A>,
    col_side: bool,
    v: &SparseVec<V>,
    mask: &MaskVec,
    out_size: Index,
    fwd_deg: &[usize],
    mulf: &M,
    addf: &R,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3 + Sync,
    R: Fn(&D3, &D3) -> D3 + Sync,
{
    let vi = v.indices();
    let vv = v.vals();
    let ot = OrientedTiles::new(t, col_side);
    #[cfg(not(feature = "parallel"))]
    let _ = fwd_deg;
    #[cfg(feature = "parallel")]
    {
        let work: usize = vi.iter().map(|&i| fwd_deg[i]).sum();
        if let Some(plan) = par::plan(vi.len(), work) {
            let parts = par::run_chunks(vi.len(), plan, |lo, hi| {
                push_gather_tiled(&ot, vi, vv, mask, lo, hi, mulf, addf)
            });
            let merged = parts
                .into_iter()
                .reduce(|a, b| merge_sorted(a, b, addf))
                .unwrap_or_default();
            tiled::note_tiles(ot.touched());
            return SparseVec::from_sorted_parts(out_size, merged.0, merged.1);
        }
    }
    let (idx, vals) = push_gather_tiled(&ot, vi, vv, mask, 0, vi.len(), mulf, addf);
    tiled::note_tiles(ot.touched());
    SparseVec::from_sorted_parts(out_size, idx, vals)
}

/// Merge two sorted per-chunk results; `a` comes from earlier frontier
/// positions, so duplicates combine as `addf(a, b)` — chunk order is
/// frontier order is input-index order.
fn merge_sorted<D3, R>(
    a: (Vec<Index>, Vec<D3>),
    b: (Vec<Index>, Vec<D3>),
    addf: &R,
) -> (Vec<Index>, Vec<D3>)
where
    D3: Scalar,
    R: Fn(&D3, &D3) -> D3,
{
    let (ai, av) = a;
    let (bi, bv) = b;
    let mut idx = Vec::with_capacity(ai.len() + bi.len());
    let mut out = Vec::with_capacity(av.len() + bv.len());
    let mut ap = ai.iter().zip(av).peekable();
    let mut bp = bi.iter().zip(bv).peekable();
    loop {
        match (ap.peek(), bp.peek()) {
            (Some((&x, _)), Some((&y, _))) => {
                if x < y {
                    let (_, v) = ap.next().expect("peeked");
                    idx.push(x);
                    out.push(v);
                } else if y < x {
                    let (_, v) = bp.next().expect("peeked");
                    idx.push(y);
                    out.push(v);
                } else {
                    let (_, va) = ap.next().expect("peeked");
                    let (_, vb) = bp.next().expect("peeked");
                    idx.push(x);
                    out.push(addf(&va, &vb));
                }
            }
            (Some(_), None) => {
                let (&x, v) = ap.next().expect("peeked");
                idx.push(x);
                out.push(v);
            }
            (None, Some(_)) => {
                let (&y, v) = bp.next().expect("peeked");
                idx.push(y);
                out.push(v);
            }
            (None, None) => break,
        }
    }
    (idx, out)
}

fn push<A, V, D3, M, R>(
    fwd: &Csr<A>,
    v: &SparseVec<V>,
    mask: &MaskVec,
    out_size: Index,
    mulf: &M,
    addf: &R,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3 + Sync,
    R: Fn(&D3, &D3) -> D3 + Sync,
{
    let vi = v.indices();
    let vv = v.vals();
    #[cfg(feature = "parallel")]
    {
        let work: usize = vi.iter().map(|&i| fwd.row_nvals(i)).sum();
        if let Some(plan) = par::plan(vi.len(), work) {
            let parts = par::run_chunks(vi.len(), plan, |lo, hi| {
                push_gather(fwd, vi, vv, mask, lo, hi, mulf, addf)
            });
            // left-fold in chunk order: identical association to the
            // serial frontier walk
            let merged = parts
                .into_iter()
                .reduce(|a, b| merge_sorted(a, b, addf))
                .unwrap_or_default();
            return SparseVec::from_sorted_parts(out_size, merged.0, merged.1);
        }
    }
    let (idx, vals) = push_gather(fwd, vi, vv, mask, 0, vi.len(), mulf, addf);
    SparseVec::from_sorted_parts(out_size, idx, vals)
}

/// One reverse-oriented row against the dense-scattered input: O(1)
/// probes per stored entry, accumulating in ascending stored-index
/// order — the same left fold as push and the dense kernels.
fn probe_row<A, V, D3, M, R>(
    cols: &[Index],
    vals: &[A],
    v_dense: &[Option<&V>],
    mulf: &M,
    addf: &R,
) -> Option<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3,
    R: Fn(&D3, &D3) -> D3,
{
    let mut acc: Option<D3> = None;
    for (i, a) in cols.iter().zip(vals) {
        if let Some(x) = v_dense[*i] {
            let prod = mulf(a, x);
            acc = Some(match acc {
                Some(y) => addf(&y, &prod),
                None => prod,
            });
        }
    }
    acc
}

fn pull<A, V, D3, M, R>(
    rev: &Csr<A>,
    v: &SparseVec<V>,
    mask: &MaskVec,
    mulf: &M,
    addf: &R,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3 + Sync,
    R: Fn(&D3, &D3) -> D3 + Sync,
{
    let out_size = rev.nrows();
    // dense scatter of the input: one O(size) pass, O(1) probes after
    let mut v_dense: Vec<Option<&V>> = vec![None; v.size()];
    for (k, val) in v.iter() {
        v_dense[k] = Some(val);
    }
    let v_dense = &v_dense;
    // non-complement pattern: expand *only* the admitted outputs — the
    // mask's indices are sorted, so the result assembles in order
    if let MaskVec::Pattern {
        indices,
        complement: false,
    } = mask
    {
        let eval = |lo: usize, hi: usize| {
            let mut idx = Vec::new();
            let mut out = Vec::new();
            for &j in &indices[lo..hi] {
                let (cols, vals) = rev.row(j);
                if let Some(acc) = probe_row(cols, vals, v_dense, mulf, addf) {
                    idx.push(j);
                    out.push(acc);
                }
            }
            (idx, out)
        };
        #[cfg(feature = "parallel")]
        {
            let work: usize = rev.nvals().min(indices.len().saturating_mul(8)) + v.nvals();
            if let Some(plan) = par::plan(indices.len(), work) {
                let parts = par::run_chunks(indices.len(), plan, eval);
                let mut idx = Vec::new();
                let mut out = Vec::new();
                for (i, o) in parts {
                    idx.extend(i);
                    out.extend(o);
                }
                return SparseVec::from_sorted_parts(out_size, idx, out);
            }
        }
        let (idx, out) = eval(0, indices.len());
        return SparseVec::from_sorted_parts(out_size, idx, out);
    }
    // All or complement-pattern mask: walk rows with the admits()
    // early-exit so masked-out rows are never expanded
    let results = map_rows(out_size, rev.nvals() + v.nvals(), |j| {
        if !mask.admits(j) {
            return None;
        }
        let (cols, vals) = rev.row(j);
        probe_row(cols, vals, v_dense, mulf, addf)
    });
    let mut idx = Vec::new();
    let mut out = Vec::new();
    for (j, r) in results.into_iter().enumerate() {
        if let Some(val) = r {
            idx.push(j);
            out.push(val);
        }
    }
    SparseVec::from_sorted_parts(out_size, idx, out)
}

/// One reverse-oriented *tiled* row against the dense-scattered input:
/// tile segments arrive in ascending global stored-index order, so the
/// left fold is bitwise identical to [`probe_row`] over a slab row.
fn probe_row_tiled<A, V, D3, M, R>(
    cur: &mut RowCursor<'_, '_, A>,
    j: Index,
    v_dense: &[Option<&V>],
    mulf: &M,
    addf: &R,
) -> Option<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3,
    R: Fn(&D3, &D3) -> D3,
{
    let mut acc: Option<D3> = None;
    cur.for_row(j, &mut |off, cols, vals| {
        for (i, a) in cols.iter().zip(vals) {
            if let Some(x) = v_dense[off + i] {
                let prod = mulf(a, x);
                acc = Some(match acc.take() {
                    Some(y) => addf(&y, &prod),
                    None => prod,
                });
            }
        }
    });
    acc
}

/// Pull over a tiled store: the per-admitted-output merge-walk of
/// [`pull`], probing rows through lazily materialized per-tile views
/// (`col_side` picks the reverse orientation).
fn pull_tiled<A, V, D3, M, R>(
    t: &Tiled<A>,
    col_side: bool,
    v: &SparseVec<V>,
    mask: &MaskVec,
    mulf: &M,
    addf: &R,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3 + Sync,
    R: Fn(&D3, &D3) -> D3 + Sync,
{
    let ot = OrientedTiles::new(t, col_side);
    let out_size = ot.nrows();
    let mut v_dense: Vec<Option<&V>> = vec![None; v.size()];
    for (k, val) in v.iter() {
        v_dense[k] = Some(val);
    }
    let v_dense = &v_dense;
    if let MaskVec::Pattern {
        indices,
        complement: false,
    } = mask
    {
        let eval = |lo: usize, hi: usize| {
            let mut cur = ot.cursor();
            let mut idx = Vec::new();
            let mut out = Vec::new();
            for &j in &indices[lo..hi] {
                if let Some(acc) = probe_row_tiled(&mut cur, j, v_dense, mulf, addf) {
                    idx.push(j);
                    out.push(acc);
                }
            }
            (idx, out)
        };
        #[cfg(feature = "parallel")]
        {
            let work: usize = t.nvals().min(indices.len().saturating_mul(8)) + v.nvals();
            if let Some(plan) = par::plan(indices.len(), work) {
                let parts = par::run_chunks(indices.len(), plan, eval);
                let mut idx = Vec::new();
                let mut out = Vec::new();
                for (i, o) in parts {
                    idx.extend(i);
                    out.extend(o);
                }
                tiled::note_tiles(ot.touched());
                return SparseVec::from_sorted_parts(out_size, idx, out);
            }
        }
        let (idx, out) = eval(0, indices.len());
        tiled::note_tiles(ot.touched());
        return SparseVec::from_sorted_parts(out_size, idx, out);
    }
    let results = map_rows_init(
        out_size,
        t.nvals() + v.nvals(),
        || ot.cursor(),
        |cur, j| {
            if !mask.admits(j) {
                return None;
            }
            probe_row_tiled(cur, j, v_dense, mulf, addf)
        },
    );
    let mut idx = Vec::new();
    let mut out = Vec::new();
    for (j, r) in results.into_iter().enumerate() {
        if let Some(val) = r {
            idx.push(j);
            out.push(val);
        }
    }
    tiled::note_tiles(ot.touched());
    SparseVec::from_sorted_parts(out_size, idx, out)
}

/// Pull over a bitmap store's native row orientation (the dense-frontier
/// fast path of BFS/BC pull steps), closure-parameterized so both `mxv`
/// and transposed `vxm` can use it.
fn pull_bitmap<A, V, D3, M, R>(
    b: &Bitmap<A>,
    v: &SparseVec<V>,
    mask: &MaskVec,
    mulf: &M,
    addf: &R,
) -> SparseVec<D3>
where
    A: Scalar,
    V: Scalar,
    D3: Scalar,
    M: Fn(&A, &V) -> D3 + Sync,
    R: Fn(&D3, &D3) -> D3 + Sync,
{
    let mut v_dense: Vec<Option<&V>> = vec![None; v.size()];
    for (k, val) in v.iter() {
        v_dense[k] = Some(val);
    }
    let v_dense = &v_dense;
    let results = map_rows(b.nrows(), b.nvals() + v.nvals(), |i| {
        if !mask.admits(i) {
            return None;
        }
        let mut acc: Option<D3> = None;
        for (j, aij) in b.row_iter(i) {
            if let Some(vj) = v_dense[j] {
                let prod = mulf(aij, vj);
                acc = Some(match acc {
                    Some(x) => addf(&x, &prod),
                    None => prod,
                });
            }
        }
        acc
    });
    let mut idx = Vec::new();
    let mut out = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        if let Some(val) = r {
            idx.push(i);
            out.push(val);
        }
    }
    SparseVec::from_sorted_parts(b.nrows(), idx, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semiring::{lor_land, plus_times};
    use crate::storage::engine::{Format, FormatPolicy};

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

    fn all_directions() -> [Direction; 3] {
        [Direction::Push, Direction::Pull, Direction::Dense]
    }

    #[test]
    fn directions_agree_for_vxm_and_mxv() {
        let sr = plus_times::<i32>();
        let v = SparseVec::from_sorted_parts(3, vec![0, 2], vec![10, 30]);
        for transposed in [false, true] {
            for fmt in [
                Format::Csr,
                Format::Csc,
                Format::Bitmap,
                Format::Hyper,
                Format::Tiled,
            ] {
                let st = store().into_format(fmt);
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
    fn push_matches_legacy_vxm() {
        let sr = plus_times::<i32>();
        let st = store();
        let v = SparseVec::from_dense(&[10, 20, 30]);
        let legacy = crate::kernel::mxv::vxm(&sr, &v, &st.row_csr(), &MaskVec::All);
        let got: SparseVec<i32> =
            with_direction(Direction::Push, || vxm(&sr, &v, &st, false, &MaskVec::All));
        assert_eq!(got, legacy);
    }

    #[test]
    fn empty_frontier_pushes_nothing() {
        let sr = lor_land();
        let st = MatrixStore::from_csr(
            Csr::from_sorted_tuples(4, 4, vec![(0, 1, true), (2, 3, true)]),
            FormatPolicy::Force(Format::Csr),
        );
        let v = SparseVec::<bool>::empty(4);
        let w: SparseVec<bool> = vxm(&sr, &v, &st, false, &MaskVec::All);
        assert_eq!(w.nvals(), 0);
        assert_eq!(take_direction(), Some("push"));
    }

    #[test]
    fn heuristic_pushes_sparse_frontiers_and_pulls_dense_ones() {
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
        assert_eq!(take_direction(), Some("push"));
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
        assert_eq!(take_direction(), Some("pull"));
    }

    #[test]
    fn dense_inputs_take_the_dense_kernel() {
        let sr = plus_times::<i32>();
        let st = store();
        let v = SparseVec::from_dense(&[10, 20, 30]);
        let _: SparseVec<i32> = vxm(&sr, &v, &st, false, &MaskVec::All);
        assert_eq!(take_direction(), Some("dense"));
    }

    #[test]
    fn override_restores_on_exit() {
        assert_eq!(direction_override(), Direction::Auto);
        with_direction(Direction::Pull, || {
            assert_eq!(direction_override(), Direction::Pull);
        });
        assert_eq!(direction_override(), Direction::Auto);
    }
}
