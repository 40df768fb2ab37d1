//! Flush kernel: merges pending-update runs ([`crate::storage::delta`])
//! into backing storage, row by row.
//!
//! The matrix merge writes its output through `kernel::util::emit_rows`,
//! like every other CSR-producing kernel: a row no run touches is one
//! slice copy of its columns and values, and a touched row is the base
//! row merged with the runs' entries for it. Each chunk locates the run
//! slices covering its rows by binary search, combines them across runs
//! once and walks the result row by row, so a row's output never
//! depends on chunk boundaries and flushed storage is bitwise identical
//! at every worker degree ([`crate::kernel::par`]).
//!
//! Last-write-wins ordering: within a sealed run duplicates are already
//! combined (the log's dup policy); across runs the entry with the
//! highest [`DeltaEntry::seq`] — the program-order-latest mutation —
//! wins. A `Del` of an absent element merges to nothing, matching the
//! C API's no-op semantics for `GrB_*_removeElement`.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::exec::trace;
use crate::index::Index;
use crate::kernel::par;
use crate::kernel::util::emit_rows;
use crate::scalar::Scalar;
use crate::storage::delta::{DeltaEntry, DeltaOp, Run};
use crate::storage::engine::{FormatPolicy, Layout, MatrixStore};
use crate::storage::tiled::{self, Tiled};
use crate::storage::{Csr, SparseVec};

/// Cross-run last-write-wins: `parts` are the runs' entries over one
/// key range, each sorted and duplicate-free; append to `out` (empty)
/// one entry per key, the one with the highest `seq`. The stable sort
/// finds the parts already sorted and merges them.
fn combine<'a, K: Ord + Copy + 'a, T: 'a>(
    parts: impl Iterator<Item = &'a [DeltaEntry<K, T>]>,
    out: &mut Vec<&'a DeltaEntry<K, T>>,
) {
    let mut live = 0;
    for p in parts {
        live += usize::from(!p.is_empty());
        out.extend(p);
    }
    if live > 1 {
        out.sort_by_key(|e| (e.key, Reverse(e.seq)));
        out.dedup_by_key(|e| e.key);
    }
}

/// Append the base row `(cols, vals)` with `delta` (ascending columns,
/// one op each) applied. The base stretches between delta columns are
/// slice copies.
fn merge_row<'a, T: Scalar>(
    (bc, bv): (&[Index], &[T]),
    delta: impl Iterator<Item = (Index, &'a DeltaOp<T>)>,
    cols: &mut Vec<Index>,
    vals: &mut Vec<T>,
) {
    let mut b = 0;
    for (c, op) in delta {
        let stop = b + bc[b..].partition_point(|&x| x < c);
        cols.extend_from_slice(&bc[b..stop]);
        vals.extend_from_slice(&bv[b..stop]);
        b = stop + usize::from(bc.get(stop) == Some(&c));
        if let DeltaOp::Put(v) = op {
            cols.push(c);
            vals.push(v.clone());
        }
    }
    cols.extend_from_slice(&bc[b..]);
    vals.extend_from_slice(&bv[b..]);
}

type Entry<T> = DeltaEntry<(Index, Index), T>;

/// One chunk's share of the runs: their entries for the chunk's rows,
/// combined across runs, and how far the row walk has read them.
struct ChunkDelta<'a, T> {
    entries: Vec<&'a Entry<T>>,
    at: usize,
    /// An upper bound on the chunk's output entries, reserved at its
    /// first row so the output arrays never grow by doubling.
    reserve: usize,
}

/// Merge `runs` into `base` through [`emit_rows`]; returns the merged
/// rows and the count of distinct rows the runs touched.
fn merge_rows<T: Scalar>(base: &Csr<T>, runs: &[Run<(Index, Index), T>]) -> (Csr<T>, usize) {
    let pending: usize = runs.iter().map(|r| r.len()).sum();
    let touched = AtomicUsize::new(0);
    let out = emit_rows(
        base.nrows(),
        base.ncols(),
        base.nvals() + pending,
        |start, end| {
            let parts = runs.iter().map(|r| {
                &r[r.partition_point(|e| e.key.0 < start)..r.partition_point(|e| e.key.0 < end)]
            });
            let mut entries = Vec::new();
            combine(parts, &mut entries);
            let rows = entries.chunk_by(|a, b| a.key.0 == b.key.0).count();
            touched.fetch_add(rows, Ordering::Relaxed);
            let ptr = base.row_ptr();
            let reserve = ptr[end] - ptr[start] + entries.len();
            ChunkDelta {
                entries,
                at: 0,
                reserve,
            }
        },
        |st: &mut ChunkDelta<T>, i, cols, vals| {
            if st.reserve > 0 {
                cols.reserve(st.reserve);
                vals.reserve(st.reserve);
                st.reserve = 0;
            }
            let lo = st.at;
            st.at += st.entries[lo..].iter().take_while(|e| e.key.0 == i).count();
            let delta = st.entries[lo..st.at].iter().map(|e| (e.key.1, &e.op));
            merge_row(base.row(i), delta, cols, vals);
        },
    );
    (out, touched.into_inner())
}

/// Merge pending runs into a CSR base, producing the flushed storage —
/// exactly what eager per-call application of every pending mutation (in
/// `seq` order) would have produced. Row-parallel when the cost model
/// approves; bitwise identical either way.
pub fn merge_matrix<T: Scalar>(base: &Csr<T>, runs: &[Run<(Index, Index), T>]) -> Csr<T> {
    let (out, merged_rows) = merge_rows(base, runs);
    trace::note(|n| n.add_flush(runs.iter().map(|r| r.len()).sum(), merged_rows));
    out
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
pub(crate) fn merge_into_store<T: Scalar>(
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
        let (merged, merged_rows) = merge_rows(&base, &tile_runs[idx]);
        let block = (merged.nvals() > 0).then(|| Arc::new(MatrixStore::csr(merged)));
        (block, merged_rows)
    };
    let work = pending
        + dirty
            .iter()
            .map(|&k| t.tiles()[k].as_ref().map_or(0, |s| s.nvals()))
            .sum::<usize>();
    let results: Vec<_> = match par::plan(dirty.len(), work) {
        Some(plan) => par::run_chunks(dirty.len(), plan, |lo, hi| {
            (lo..hi).map(merge_one).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect(),
        None => (0..dirty.len()).map(merge_one).collect(),
    };
    let mut tiles = t.tiles().to_vec();
    let mut merged_rows = 0usize;
    for (&idx, (block, rows)) in dirty.iter().zip(results) {
        tiles[idx] = block;
        merged_rows += rows;
    }
    trace::note(|n| {
        n.add_flush(pending, merged_rows);
        n.add_tiles(dirty.iter().map(|&k| ((k / gc) as u32, (k % gc) as u32)));
    });
    MatrixStore::tiled(Tiled::from_tiles(t.nrows(), t.ncols(), (gr, gc), tiles))
}

/// Merge pending runs into a sparse-vector base; index-partitioned onto
/// the pool under the same cost model as the matrix flush. A span is
/// one row of the matrix merge: its run slices combined, then merged
/// with the base entries it covers.
pub fn merge_vector<T: Scalar>(base: &SparseVec<T>, runs: &[Run<Index, T>]) -> SparseVec<T> {
    let pending: usize = runs.iter().map(|r| r.len()).sum();
    let n = base.size();
    let span = |start: Index, end: Index| {
        let parts = runs
            .iter()
            .map(|r| &r[r.partition_point(|e| e.key < start)..r.partition_point(|e| e.key < end)]);
        let mut delta = Vec::new();
        combine(parts, &mut delta);
        let lo = base.indices().partition_point(|&i| i < start);
        let hi = base.indices().partition_point(|&i| i < end);
        let cap = hi - lo + delta.len();
        let (mut idx, mut vals) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        merge_row(
            (&base.indices()[lo..hi], &base.vals()[lo..hi]),
            delta.iter().map(|e| (e.key, &e.op)),
            &mut idx,
            &mut vals,
        );
        (idx, vals, delta.len())
    };
    if let Some(plan) = par::plan(n, base.nvals() + pending) {
        let parts = par::run_chunks(n, plan, span);
        // allocated on the calling thread, as in `emit_rows`
        let total = parts.iter().map(|p| p.0.len()).sum();
        let (mut idx, mut vals) = (Vec::with_capacity(total), Vec::with_capacity(total));
        let mut merged_rows = 0;
        for (mut i, mut v, touched) in parts {
            idx.append(&mut i);
            vals.append(&mut v);
            merged_rows += touched;
        }
        trace::note(|n| n.add_flush(pending, merged_rows));
        return SparseVec::from_sorted_parts(n, idx, vals);
    }
    let (idx, vals, merged_rows) = span(0, n);
    trace::note(|n| n.add_flush(pending, merged_rows));
    SparseVec::from_sorted_parts(n, idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::take_notes;
    use crate::storage::delta::{DeltaLog, MAX_RUNS};
    use std::collections::BTreeSet;

    fn flushed(notes: &crate::exec::TraceEvent) -> (usize, usize) {
        (notes.pending_len, notes.merged_rows)
    }

    /// `(row, col, value)`; a `None` value removes.
    type Op = (Index, Index, Option<i64>);
    /// A name, a base, and the batches of ops drained into runs.
    type Case = (&'static str, Csr<i64>, Vec<Vec<Op>>);

    fn eager_apply(base: &Csr<i64>, ops: &[Op]) -> Csr<i64> {
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

    /// One log drained after each batch: every batch seals its own run,
    /// and later batches outrank earlier ones.
    fn runs_of(batches: &[Vec<Op>]) -> Vec<Run<(Index, Index), i64>> {
        let mut log = DeltaLog::new();
        let mut runs = Vec::new();
        for batch in batches {
            for &(i, j, v) in batch {
                log.push((i, j), v.map_or(DeltaOp::Del, DeltaOp::Put));
            }
            runs.extend(log.drain());
        }
        runs
    }

    /// Merge cases over a 256 × 8 base. Under `with_cost_model(1, 0)` the
    /// row chunks span 32 rows at degree 2 and 8 rows at degree 8.
    fn cases() -> Vec<Case> {
        let (n, m) = (256usize, 8usize);
        let one_per_row = Csr::from_sorted_tuples(n, m, (0..n).map(|i| (i, (i * 3) % m, i as i64)));
        let even_rows = one_per_row.filter(|i, _, _| i % 2 == 0);
        let row_5_full = Csr::from_sorted_tuples(
            n,
            m,
            (0..n).flat_map(|i| {
                let cols = if i == 5 {
                    0..m
                } else {
                    (i * 3) % m..(i * 3) % m + 1
                };
                cols.map(move |j| (i, j, (i * m + j) as i64))
            }),
        );
        let many_runs: Vec<Vec<Op>> = (0..MAX_RUNS + 4)
            .map(|r| {
                (0..24)
                    .map(|k| {
                        let (i, j) = ((r * 37 + k * 11) % n, (r + k) % m);
                        (i, j, (k % 3 != 0).then_some((r * 100 + k) as i64))
                    })
                    .collect()
            })
            .collect();
        vec![
            (
                // chunk boundaries fall on multiples of 8, between rows
                // 8k - 1 and 8k, which no run touches
                "untouched rows on both sides of every chunk boundary",
                one_per_row.clone(),
                vec![(0..n)
                    .filter(|i| i % 8 == 4)
                    .flat_map(|i| [(i, (i * 3) % m, None), (i, 6, Some(-(i as i64)))])
                    .collect()],
            ),
            (
                "rows present only in the runs",
                even_rows,
                vec![(0..n)
                    .filter(|i| i % 2 == 1)
                    .flat_map(|i| [(i, 1, Some(1)), (i, 5, Some(5))])
                    .collect()],
            ),
            (
                "a row whose every entry is deleted, across two runs",
                row_5_full,
                vec![
                    (0..4).map(|j| (5, j, None)).collect(),
                    (4..m).map(|j| (5, j, None)).collect(),
                ],
            ),
            (
                "del of an absent entry",
                one_per_row.clone(),
                vec![(0..n)
                    .step_by(3)
                    .map(|i| (i, (i * 3 + 1) % m, None))
                    .collect()],
            ),
            ("more runs than MAX_RUNS", one_per_row, many_runs.clone()),
            ("an empty base", Csr::empty(n, m), many_runs),
        ]
    }

    #[test]
    fn empty_runs_reproduce_base() {
        let base = Csr::from_sorted_tuples(3, 3, vec![(0, 1, 5i64), (2, 2, 7)]);
        let out = merge_matrix(&base, &[]);
        assert_eq!(out, base);
        let st = take_notes();
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
        let out = merge_matrix(&base, &runs_of(&[ops.to_vec()]));
        assert_eq!(out, eager_apply(&base, &ops));
        let st = take_notes();
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
        take_notes();
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
        take_notes();
    }

    #[test]
    fn chunked_merge_is_bitwise_serial() {
        let mut all = cases();
        all.push((
            "one run over a 64-row diagonal",
            Csr::from_sorted_tuples(64, 8, (0..64usize).map(|i| (i, i % 8, i as i64))),
            vec![(0..200)
                .map(|k| {
                    let (i, j) = ((k * 13) % 64, (k * 7) % 8);
                    (i, j, (k % 5 != 0).then_some(k as i64))
                })
                .collect()],
        ));
        for (name, base, batches) in all {
            let runs = runs_of(&batches);
            let ops = batches.concat();
            let expect = eager_apply(&base, &ops);
            let serial = par::with_parallelism(1, || merge_matrix(&base, &runs));
            let st = take_notes();
            assert_eq!(serial, expect, "{name}");
            assert_eq!(st.pending_len, runs.iter().map(|r| r.len()).sum::<usize>());
            let rows: BTreeSet<Index> = ops.iter().map(|o| o.0).collect();
            assert_eq!(st.merged_rows, rows.len(), "{name}");
            for k in [2, 8] {
                let parallel = par::with_parallelism(k, || {
                    par::with_cost_model(1, 0, || merge_matrix(&base, &runs))
                });
                assert_eq!(parallel, expect, "{name} at degree {k}");
                let notes = take_notes();
                assert_eq!(flushed(&notes), flushed(&st), "{name} at degree {k}");
                assert!(notes.par_chunks >= 2, "{name}: no chunks at degree {k}");
            }
        }
        let runs = runs_of(&cases()[4].2);
        assert!(runs.len() > MAX_RUNS);
    }

    #[test]
    fn tiled_merge_matches_slab_merge() {
        let mut all = cases();
        all.push((
            "one run over a 16 × 16 permutation",
            Csr::from_sorted_tuples(16, 16, (0..16usize).map(|i| (i, (i * 5) % 16, i as i64))),
            vec![(0..60)
                .map(|k| {
                    let (i, j) = ((k * 11) % 16, (k * 3) % 16);
                    (i, j, (k % 4 != 0).then_some(100 + k as i64))
                })
                .collect()],
        ));
        for (name, base, batches) in all {
            let runs = runs_of(&batches);
            let expect = eager_apply(&base, &batches.concat());
            assert_eq!(merge_matrix(&base, &runs), expect, "{name}");
            take_notes();
            for grid in [(1, 1), (2, 2), (4, 4), (3, 5)] {
                let policy = FormatPolicy::Tiled {
                    rows: grid.0,
                    cols: grid.1,
                };
                let store = MatrixStore::from_csr(base.clone(), policy);
                for k in [1, 2, 8] {
                    let out = par::with_parallelism(k, || {
                        par::with_cost_model(1, 0, || merge_into_store(&store, &runs, policy))
                    });
                    assert_eq!(
                        out.row_csr().as_ref(),
                        &expect,
                        "{name}, grid {grid:?}, degree {k}"
                    );
                    take_notes();
                }
            }
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
        let st = take_notes();
        assert_eq!(st.pending_len, 2);
        assert_eq!(st.tiles, vec![(0, 0)]);

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
        let st = take_notes();
        assert_eq!(st.pending_len, 4);
        assert_eq!(st.merged_rows, 4);

        // The matrix cases flattened row-major into vectors of 2,048:
        // forced chunks span 64 indices (8 rows) at degree 8.
        for (name, csr, batches) in cases() {
            let m = csr.ncols();
            let flat = |(i, j): (Index, Index)| i * m + j;
            let tuples = csr.to_tuples();
            let base = SparseVec::from_sorted_parts(
                csr.nrows() * m,
                tuples.iter().map(|&(i, j, _)| flat((i, j))).collect(),
                tuples.iter().map(|t| t.2).collect(),
            );
            let mut expect = base.clone();
            let mut log = DeltaLog::new();
            let mut runs = Vec::new();
            for batch in &batches {
                for &(i, j, v) in batch {
                    let k = flat((i, j));
                    match v {
                        Some(v) => expect.set(k, v),
                        None => {
                            expect.remove(k);
                        }
                    }
                    log.push(k, v.map_or(DeltaOp::Del, DeltaOp::Put));
                }
                runs.extend(log.drain());
            }
            let serial = par::with_parallelism(1, || merge_vector(&base, &runs));
            let st = take_notes();
            assert_eq!(serial, expect, "{name}");
            let keys: BTreeSet<Index> = batches
                .concat()
                .iter()
                .map(|&(i, j, _)| flat((i, j)))
                .collect();
            assert_eq!(st.merged_rows, keys.len(), "{name}");
            for k in [2, 8] {
                let parallel = par::with_parallelism(k, || {
                    par::with_cost_model(1, 0, || merge_vector(&base, &runs))
                });
                assert_eq!(parallel, expect, "{name} at degree {k}");
                assert_eq!(flushed(&take_notes()), flushed(&st), "{name} at degree {k}");
            }
        }
    }
}
