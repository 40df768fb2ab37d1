//! Flush kernel: k-way merge of pending-update runs
//! ([`crate::storage::delta`]) into backing storage.
//!
//! The merge is row-partitioned onto the shared worker pool under the
//! same cost model and deterministic in-order chunk concatenation as
//! every other kernel ([`crate::kernel::par`]): each chunk covers a
//! contiguous row range, run slices are located by binary search, and a
//! chunk's output never depends on chunk boundaries — so flushed storage
//! is bitwise identical at every worker degree.
//!
//! Last-write-wins ordering: within a sealed run duplicates are already
//! combined (the log's dup policy); across runs the entry with the
//! highest [`DeltaEntry::seq`] — the program-order-latest mutation —
//! wins. A `Del` of an absent element merges to nothing, matching the
//! C API's no-op semantics for `GrB_*_removeElement`.

use std::cell::Cell;
use std::sync::Arc;

use crate::index::Index;
use crate::kernel::par;
use crate::scalar::Scalar;
use crate::storage::delta::{DeltaEntry, DeltaOp, Run};
use crate::storage::engine::{FormatPolicy, Layout, MatrixStore};
use crate::storage::tiled::{self, Tiled};
use crate::storage::{Csr, SparseVec};

/// Flush work observed on this thread since the last
/// [`take_flush_stats`] — a traced `wait()` drains it into `flush` trace
/// events, alongside [`par::take_stats`] for the chunk fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Pending entries merged (post-dedup, summed over runs).
    pub pending_len: usize,
    /// Distinct output rows (vector: indices) the pending entries touched.
    pub merged_rows: usize,
}

impl FlushStats {
    const ZERO: FlushStats = FlushStats {
        pending_len: 0,
        merged_rows: 0,
    };
}

thread_local! {
    static FLUSH_STATS: Cell<FlushStats> = const { Cell::new(FlushStats::ZERO) };
}

/// Drain the flush stats accumulated on this thread since the last call.
pub fn take_flush_stats() -> FlushStats {
    FLUSH_STATS.with(|s| s.replace(FlushStats::ZERO))
}

fn note_flush(pending_len: usize, merged_rows: usize) {
    FLUSH_STATS.with(|s| {
        let mut st = s.get();
        st.pending_len += pending_len;
        st.merged_rows += merged_rows;
        s.set(st);
    });
}

/// Merge one row range `[start, end)`: k-way combine the run slices
/// (highest `seq` wins per key), then two-pointer merge with the base
/// rows. Returns the chunk's output tuples and the count of distinct
/// rows the deltas touched.
fn merge_matrix_rows<T: Scalar>(
    base: &Csr<T>,
    runs: &[Run<(Index, Index), T>],
    start: Index,
    end: Index,
) -> (Vec<(Index, Index, T)>, usize) {
    let slices: Vec<&[DeltaEntry<(Index, Index), T>]> = runs
        .iter()
        .map(|r| {
            let lo = r.partition_point(|e| e.key.0 < start);
            let hi = r.partition_point(|e| e.key.0 < end);
            &r[lo..hi]
        })
        .collect();
    // Cross-run k-way merge into one LWW-deduplicated delta list. Each
    // run is internally deduplicated, so each holds at most one entry
    // per key; among runs sharing the min key, the highest seq wins.
    let mut cursors = vec![0usize; slices.len()];
    let mut delta: Vec<(Index, Index, DeltaOp<T>)> = Vec::new();
    let mut touched_rows = 0usize;
    loop {
        let mut min_key: Option<(Index, Index)> = None;
        for (s, &c) in slices.iter().zip(&cursors) {
            if let Some(e) = s.get(c) {
                min_key = Some(min_key.map_or(e.key, |m: (Index, Index)| m.min(e.key)));
            }
        }
        let Some(key) = min_key else { break };
        let mut best: Option<&DeltaEntry<(Index, Index), T>> = None;
        for (s, c) in slices.iter().zip(cursors.iter_mut()) {
            if let Some(e) = s.get(*c) {
                if e.key == key {
                    if best.is_none_or(|b| e.seq > b.seq) {
                        best = Some(e);
                    }
                    *c += 1;
                }
            }
        }
        if delta.last().is_none_or(|d| d.0 != key.0) {
            touched_rows += 1;
        }
        delta.push((key.0, key.1, best.expect("min key has an entry").op.clone()));
    }
    // Two-pointer merge of each base row with its delta span.
    let mut out = Vec::with_capacity(base.row_ptr()[end] - base.row_ptr()[start] + delta.len());
    let mut d = 0usize;
    for i in start..end {
        let (cols, vals) = base.row(i);
        let mut b = 0usize;
        loop {
            let pending = (d < delta.len() && delta[d].0 == i).then(|| delta[d].1);
            match (cols.get(b), pending) {
                (Some(&bc), Some(dc)) if dc < bc => {
                    if let DeltaOp::Put(v) = &delta[d].2 {
                        out.push((i, dc, v.clone()));
                    }
                    d += 1;
                }
                (Some(&bc), Some(dc)) if dc == bc => {
                    if let DeltaOp::Put(v) = &delta[d].2 {
                        out.push((i, dc, v.clone()));
                    }
                    d += 1;
                    b += 1;
                }
                (Some(&bc), _) => {
                    out.push((i, bc, vals[b].clone()));
                    b += 1;
                }
                (None, Some(dc)) => {
                    if let DeltaOp::Put(v) = &delta[d].2 {
                        out.push((i, dc, v.clone()));
                    }
                    d += 1;
                }
                (None, None) => break,
            }
        }
    }
    (out, touched_rows)
}

/// Merge pending runs into a CSR base, producing the flushed storage —
/// exactly what eager per-call application of every pending mutation (in
/// `seq` order) would have produced. Row-parallel when the cost model
/// approves; bitwise identical either way.
pub fn merge_matrix<T: Scalar>(base: &Csr<T>, runs: &[Run<(Index, Index), T>]) -> Csr<T> {
    let pending: usize = runs.iter().map(|r| r.len()).sum();
    let (nrows, ncols) = (base.nrows(), base.ncols());
    #[cfg(feature = "parallel")]
    if let Some(plan) = par::plan(nrows, base.nvals() + pending) {
        let parts = par::run_chunks(nrows, plan, |s, e| merge_matrix_rows(base, runs, s, e));
        let merged_rows = parts.iter().map(|p| p.1).sum();
        note_flush(pending, merged_rows);
        return Csr::from_sorted_tuples(nrows, ncols, parts.into_iter().flat_map(|p| p.0));
    }
    let (tuples, merged_rows) = merge_matrix_rows(base, runs, 0, nrows);
    note_flush(pending, merged_rows);
    Csr::from_sorted_tuples(nrows, ncols, tuples)
}

/// Merge pending runs into a *store* under `policy` — the flush entry
/// point of [`crate::object::Matrix`]'s overlay and flush nodes.
///
/// When the store is tiled and the policy keeps the same grid, the
/// merge is **tile-granular**: runs are partitioned per tile (keys
/// localized, `seq` order preserved), only dirty tiles are re-merged —
/// as chunk tasks on the shared pool, in deterministic grid order — and
/// every clean tile keeps its `Arc` identity, so its memoized views and
/// degree caches survive the flush untouched. Otherwise this is the
/// classic whole-slab merge re-stored under the policy.
pub fn merge_into_store<T: Scalar>(
    store: &MatrixStore<T>,
    runs: &[Run<(Index, Index), T>],
    policy: FormatPolicy,
) -> MatrixStore<T> {
    if let (Layout::Tiled(t), Some(grid)) = (store.layout(), policy.tile_grid()) {
        if t.grid() == tiled::clamp_grid(store.nrows(), store.ncols(), grid) {
            return merge_tiled(t, runs);
        }
    }
    MatrixStore::from_csr(merge_matrix(store.row_csr().as_ref(), runs), policy)
}

/// Localize each run to the tiles it touches, merge the dirty tiles
/// (pool-parallel, in-order), and share every clean tile's `Arc`.
fn merge_tiled<T: Scalar>(t: &Tiled<T>, runs: &[Run<(Index, Index), T>]) -> MatrixStore<T> {
    let (gr, gc) = t.grid();
    let (_, span_c) = t.tile_span();
    let pending: usize = runs.iter().map(|r| r.len()).sum();
    // Per-tile runs: a row-range slice (binary search on the row-major
    // key order) split by tile column. The split is order-preserving
    // and per-run, so each local list is still a sorted, deduplicated
    // run and cross-run LWW-by-seq semantics carry over unchanged.
    let mut tile_runs: Vec<Vec<Run<(Index, Index), T>>> = vec![Vec::new(); gr * gc];
    for run in runs {
        for ti in 0..gr {
            let (r0, r1, _, _) = t.tile_bounds(ti, 0);
            let lo = run.partition_point(|e| e.key.0 < r0);
            let hi = run.partition_point(|e| e.key.0 < r1);
            if lo == hi {
                continue;
            }
            let mut parts: Vec<Vec<DeltaEntry<(Index, Index), T>>> = vec![Vec::new(); gc];
            for e in &run[lo..hi] {
                let tj = e.key.1 / span_c;
                parts[tj].push(DeltaEntry {
                    key: (e.key.0 - r0, e.key.1 - tj * span_c),
                    seq: e.seq,
                    op: e.op.clone(),
                });
            }
            for (tj, part) in parts.into_iter().enumerate() {
                if !part.is_empty() {
                    tile_runs[ti * gc + tj].push(Run::from(part));
                }
            }
        }
    }
    let dirty: Vec<usize> = (0..gr * gc).filter(|&k| !tile_runs[k].is_empty()).collect();
    let merge_one = |k: usize| -> (Option<Arc<MatrixStore<T>>>, usize) {
        let idx = dirty[k];
        let (ti, tj) = (idx / gc, idx % gc);
        let (r0, r1, c0, c1) = t.tile_bounds(ti, tj);
        let base = match t.tiles()[idx].as_ref() {
            Some(s) => s.row_csr(),
            None => Arc::new(Csr::empty(r1 - r0, c1 - c0)),
        };
        let (tuples, merged_rows) = merge_matrix_rows(&base, &tile_runs[idx], 0, r1 - r0);
        let block = (!tuples.is_empty()).then(|| {
            Arc::new(MatrixStore::csr(Csr::from_sorted_tuples(
                r1 - r0,
                c1 - c0,
                tuples,
            )))
        });
        (block, merged_rows)
    };
    let work = pending
        + dirty
            .iter()
            .map(|&k| t.tiles()[k].as_ref().map_or(0, |s| s.nvals()))
            .sum::<usize>();
    let results: Vec<(Option<Arc<MatrixStore<T>>>, usize)>;
    #[cfg(feature = "parallel")]
    {
        results = match par::plan(dirty.len(), work) {
            Some(plan) => par::run_chunks(dirty.len(), plan, |lo, hi| {
                (lo..hi).map(merge_one).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect(),
            None => (0..dirty.len()).map(merge_one).collect(),
        };
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = work;
        results = (0..dirty.len()).map(merge_one).collect();
    }
    let mut tiles = t.tiles().to_vec();
    let mut merged_rows = 0usize;
    for (&idx, (block, rows)) in dirty.iter().zip(results) {
        tiles[idx] = block;
        merged_rows += rows;
    }
    note_flush(pending, merged_rows);
    tiled::note_tiles(dirty.iter().map(|&k| ((k / gc) as u32, (k % gc) as u32)));
    MatrixStore::tiled(Tiled::from_tiles(t.nrows(), t.ncols(), (gr, gc), tiles))
}

/// The vector analogue of [`merge_matrix_rows`] over the index range
/// `[start, end)`.
fn merge_vector_span<T: Scalar>(
    base: &SparseVec<T>,
    runs: &[Run<Index, T>],
    start: Index,
    end: Index,
) -> (Vec<(Index, T)>, usize) {
    let slices: Vec<&[DeltaEntry<Index, T>]> = runs
        .iter()
        .map(|r| {
            let lo = r.partition_point(|e| e.key < start);
            let hi = r.partition_point(|e| e.key < end);
            &r[lo..hi]
        })
        .collect();
    let mut cursors = vec![0usize; slices.len()];
    let mut delta: Vec<(Index, DeltaOp<T>)> = Vec::new();
    loop {
        let mut min_key: Option<Index> = None;
        for (s, &c) in slices.iter().zip(&cursors) {
            if let Some(e) = s.get(c) {
                min_key = Some(min_key.map_or(e.key, |m| m.min(e.key)));
            }
        }
        let Some(key) = min_key else { break };
        let mut best: Option<&DeltaEntry<Index, T>> = None;
        for (s, c) in slices.iter().zip(cursors.iter_mut()) {
            if let Some(e) = s.get(*c) {
                if e.key == key {
                    if best.is_none_or(|b| e.seq > b.seq) {
                        best = Some(e);
                    }
                    *c += 1;
                }
            }
        }
        delta.push((key, best.expect("min key has an entry").op.clone()));
    }
    let touched = delta.len();
    let base_lo = base.indices().partition_point(|&i| i < start);
    let base_hi = base.indices().partition_point(|&i| i < end);
    let (bidx, bvals) = (
        &base.indices()[base_lo..base_hi],
        &base.vals()[base_lo..base_hi],
    );
    let mut out = Vec::with_capacity(bidx.len() + delta.len());
    let (mut b, mut d) = (0usize, 0usize);
    loop {
        match (bidx.get(b), delta.get(d)) {
            (Some(&bi), Some(&(di, ref op))) if di < bi => {
                if let DeltaOp::Put(v) = op {
                    out.push((di, v.clone()));
                }
                d += 1;
            }
            (Some(&bi), Some(&(di, ref op))) if di == bi => {
                if let DeltaOp::Put(v) = op {
                    out.push((di, v.clone()));
                }
                d += 1;
                b += 1;
            }
            (Some(&bi), _) => {
                out.push((bi, bvals[b].clone()));
                b += 1;
            }
            (None, Some(&(di, ref op))) => {
                if let DeltaOp::Put(v) = op {
                    out.push((di, v.clone()));
                }
                d += 1;
            }
            (None, None) => break,
        }
    }
    (out, touched)
}

/// Merge pending runs into a sparse-vector base; index-partitioned onto
/// the pool under the same cost model as the matrix flush.
pub fn merge_vector<T: Scalar>(base: &SparseVec<T>, runs: &[Run<Index, T>]) -> SparseVec<T> {
    let pending: usize = runs.iter().map(|r| r.len()).sum();
    let n = base.size();
    #[cfg(feature = "parallel")]
    if let Some(plan) = par::plan(n, base.nvals() + pending) {
        let parts = par::run_chunks(n, plan, |s, e| merge_vector_span(base, runs, s, e));
        let merged_rows = parts.iter().map(|p| p.1).sum();
        note_flush(pending, merged_rows);
        let (idx, vals) = parts.into_iter().flat_map(|p| p.0).unzip();
        return SparseVec::from_sorted_parts(n, idx, vals);
    }
    let (tuples, merged_rows) = merge_vector_span(base, runs, 0, n);
    note_flush(pending, merged_rows);
    let (idx, vals) = tuples.into_iter().unzip();
    SparseVec::from_sorted_parts(n, idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::delta::DeltaLog;

    fn eager_apply(
        base: &Csr<i64>,
        ops: &[(Index, Index, Option<i64>)], // None = remove
    ) -> Csr<i64> {
        let mut m = base.clone();
        for &(i, j, v) in ops {
            match v {
                Some(v) => m.set_element(i, j, v),
                None => {
                    m.remove_element(i, j);
                }
            }
        }
        m
    }

    fn log_of(ops: &[(Index, Index, Option<i64>)]) -> DeltaLog<(Index, Index), i64> {
        let mut log = DeltaLog::new();
        for &(i, j, v) in ops {
            log.push(
                (i, j),
                match v {
                    Some(v) => DeltaOp::Put(v),
                    None => DeltaOp::Del,
                },
            );
        }
        log
    }

    #[test]
    fn empty_runs_reproduce_base() {
        let base = Csr::from_sorted_tuples(3, 3, vec![(0, 1, 5i64), (2, 2, 7)]);
        let out = merge_matrix(&base, &[]);
        assert_eq!(out, base);
        let st = take_flush_stats();
        assert_eq!(st.pending_len, 0);
        assert_eq!(st.merged_rows, 0);
    }

    #[test]
    fn put_del_and_del_of_absent() {
        let base = Csr::from_sorted_tuples(4, 4, vec![(0, 0, 1i64), (1, 2, 2), (3, 3, 3)]);
        let ops = [
            (0, 0, Some(10)), // overwrite
            (1, 2, None),     // delete stored
            (2, 1, Some(20)), // insert into empty row
            (3, 0, None),     // delete absent: no-op
            (0, 3, Some(30)), // insert into stored row
        ];
        let out = merge_matrix(&base, &log_of(&ops).drain());
        assert_eq!(out, eager_apply(&base, &ops));
        let st = take_flush_stats();
        assert_eq!(st.pending_len, 5);
        assert_eq!(st.merged_rows, 4); // rows 0, 1, 2, 3 all touched
    }

    #[test]
    fn last_write_wins_across_runs() {
        let base = Csr::<i64>::empty(2, 2);
        let mut log = DeltaLog::new();
        log.push((0, 0), DeltaOp::Put(1i64));
        let mut runs = log.drain(); // run 1 holds the Put(1)
        log.push((0, 0), DeltaOp::Put(2));
        log.push((1, 1), DeltaOp::Put(9));
        runs.extend(log.drain()); // run 2 holds Put(2) with higher seq
        let out = merge_matrix(&base, &runs);
        assert_eq!(out.get(0, 0), Some(&2));
        assert_eq!(out.get(1, 1), Some(&9));
        take_flush_stats();
    }

    #[test]
    fn del_in_later_run_erases_put_in_earlier() {
        let base = Csr::<i64>::empty(2, 2);
        let mut log = DeltaLog::new();
        log.push((0, 1), DeltaOp::Put(5i64));
        let mut runs = log.drain();
        log.push((0, 1), DeltaOp::Del);
        runs.extend(log.drain());
        let out = merge_matrix(&base, &runs);
        assert_eq!(out.nvals(), 0);
        take_flush_stats();
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn chunked_merge_is_bitwise_serial() {
        let base = Csr::from_sorted_tuples(64, 8, (0..64usize).map(|i| (i, i % 8, i as i64)));
        let ops: Vec<(Index, Index, Option<i64>)> = (0..200)
            .map(|k| {
                let i = (k * 13) % 64;
                let j = (k * 7) % 8;
                (i, j, if k % 5 == 0 { None } else { Some(k as i64) })
            })
            .collect();
        let runs = log_of(&ops).drain();
        let serial = par::with_parallelism(1, || merge_matrix(&base, &runs));
        take_flush_stats();
        let parallel = par::with_parallelism(4, || {
            par::with_cost_model(1, 0, || merge_matrix(&base, &runs))
        });
        let st = take_flush_stats();
        assert_eq!(serial, parallel);
        assert_eq!(st.pending_len, runs.iter().map(|r| r.len()).sum::<usize>());
        let pst = par::take_stats();
        assert!(pst.par_chunks >= 2, "merge did not chunk");
    }

    #[test]
    fn tiled_merge_matches_slab_merge() {
        let base =
            Csr::from_sorted_tuples(16, 16, (0..16usize).map(|i| (i, (i * 5) % 16, i as i64)));
        let ops: Vec<(Index, Index, Option<i64>)> = (0..60)
            .map(|k| {
                let i = (k * 11) % 16;
                let j = (k * 3) % 16;
                (
                    i,
                    j,
                    if k % 4 == 0 {
                        None
                    } else {
                        Some(100 + k as i64)
                    },
                )
            })
            .collect();
        let runs = log_of(&ops).drain();
        let slab = merge_matrix(&base, &runs);
        take_flush_stats();
        for grid in [(1, 1), (2, 2), (4, 4), (3, 5)] {
            let policy = FormatPolicy::Tiled {
                rows: grid.0,
                cols: grid.1,
            };
            let store = MatrixStore::from_csr(base.clone(), policy);
            let out = merge_into_store(&store, &runs, policy);
            assert_eq!(out.row_csr().as_ref(), &slab, "grid {grid:?}");
            take_flush_stats();
            let _ = tiled::take_tiles();
        }
    }

    /// Satellite regression: a drain that only dirties one tile must
    /// leave every other tile's storage (and therefore its memoized
    /// degree caches) shared by pointer with the pre-flush store —
    /// tile-granular flush may not invalidate per-store property caches
    /// wholesale.
    #[test]
    fn tiled_merge_keeps_clean_tiles_and_their_caches() {
        use std::sync::Arc;
        let base = Csr::from_sorted_tuples(
            8,
            8,
            vec![
                (0, 0, 1i64),
                (1, 6, 2), // tile (0,1)
                (5, 1, 3), // tile (1,0)
                (6, 6, 4), // tile (1,1)
                (7, 2, 5), // tile (1,0)
            ],
        );
        let policy = FormatPolicy::Tiled { rows: 2, cols: 2 };
        let store = MatrixStore::from_csr(base, policy);
        let Layout::Tiled(before) = store.layout() else {
            panic!("expected tiled layout");
        };
        // warm each tile's degree cache
        let warmed: Vec<Option<std::sync::Arc<[usize]>>> = (0..2)
            .flat_map(|ti| (0..2).map(move |tj| (ti, tj)))
            .map(|(ti, tj)| before.tile(ti, tj).map(|t| t.row_degrees()))
            .collect();

        // dirty only tile (0,0): keys in rows 0..4, cols 0..4
        let mut log = DeltaLog::new();
        log.push((1usize, 2usize), DeltaOp::Put(9i64));
        log.push((0, 0), DeltaOp::Del);
        let out = merge_into_store(&store, &log.drain(), policy);
        let st = take_flush_stats();
        assert_eq!(st.pending_len, 2);
        assert_eq!(tiled::take_tiles(), vec![(0, 0)]);

        let Layout::Tiled(after) = out.layout() else {
            panic!("merge changed the layout");
        };
        // the dirty tile was rebuilt …
        assert_eq!(out.get(1, 2), Some(&9));
        assert_eq!(out.get(0, 0), None);
        // … and every clean tile is the same Arc as before the flush,
        // so its warmed degree cache survives by pointer identity.
        for (ti, tj) in [(0usize, 1usize), (1, 0), (1, 1)] {
            let b = before.tile(ti, tj).expect("tile occupied before");
            let a = after.tile(ti, tj).expect("tile occupied after");
            assert!(Arc::ptr_eq(b, a), "tile ({ti},{tj}) was rebuilt");
            let cached = warmed[ti * 2 + tj].as_ref().expect("warmed");
            assert!(
                Arc::ptr_eq(cached, &a.row_degrees()),
                "tile ({ti},{tj}) lost its degree cache"
            );
        }
        let b = before.tile(0, 0).expect("dirty tile occupied before");
        let a = after.tile(0, 0).expect("dirty tile occupied after");
        assert!(!Arc::ptr_eq(b, a), "dirty tile must be rebuilt");
    }

    #[test]
    fn vector_merge_matches_eager() {
        let base = SparseVec::from_sorted_parts(10, vec![1, 4, 7], vec![1.0f64, 4.0, 7.0]);
        let mut log = DeltaLog::new();
        log.push(4, DeltaOp::Del);
        log.push(2, DeltaOp::Put(2.5f64));
        log.push(7, DeltaOp::Put(-7.0));
        log.push(9, DeltaOp::Del); // absent: no-op
        let out = merge_vector(&base, &log.drain());
        assert_eq!(out.to_tuples(), vec![(1, 1.0), (2, 2.5), (7, -7.0)]);
        let st = take_flush_stats();
        assert_eq!(st.pending_len, 4);
        assert_eq!(st.merged_rows, 4);
    }
}
