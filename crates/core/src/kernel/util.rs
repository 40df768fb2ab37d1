//! Shared kernel infrastructure: row-parallel mapping over the shared
//! worker pool (see [`crate::kernel::par`]) and the row emitter every
//! CSR-producing kernel writes its output through.

use crate::index::Index;
use crate::kernel::par;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;

/// Map `f` over `0..nrows`, preserving order; rows are chunked onto the
/// shared pool when the cost model says the operation is big enough.
/// `work` is the kernel's work estimate (stored elements touched),
/// feeding the nnz half of the cost model.
pub(crate) fn map_rows<R, F>(nrows: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if let Some(plan) = par::plan(nrows, work) {
        return par::run_chunks(nrows, plan, |start, end| {
            (start..end).map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect();
    }
    (0..nrows).map(f).collect()
}

/// Build an `nrows × ncols` CSR matrix row by row:
/// `row_fn(state, i, cols, vals)` appends row `i` — sorted, duplicate-free
/// column indices and their values — to the buffers it is handed.
///
/// On the serial path those buffers are the output arrays themselves, so
/// an entry is written once. In parallel each chunk fills its own
/// buffers and the chunks are concatenated in row order: per-row
/// results never depend on chunk boundaries, so the output is bitwise
/// identical at every degree. Either way a run of rows `start..end`
/// starts from the state `init(start, end)`.
pub(crate) fn emit_rows<T, S, I, F>(
    nrows: Index,
    ncols: Index,
    work: usize,
    init: I,
    row_fn: F,
) -> Csr<T>
where
    T: Scalar,
    I: Fn(Index, Index) -> S + Sync,
    F: Fn(&mut S, Index, &mut Vec<Index>, &mut Vec<T>) + Sync,
{
    // One chunk's rows as a local CSR: `ptr` starts at 0 and has one end
    // offset per row.
    let fill = |start: usize, end: usize| {
        let mut s = init(start, end);
        let mut ptr = Vec::with_capacity(end - start + 1);
        ptr.push(0usize);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in start..end {
            row_fn(&mut s, i, &mut cols, &mut vals);
            debug_assert_eq!(cols.len(), vals.len());
            ptr.push(cols.len());
        }
        (ptr, cols, vals)
    };
    if let Some(plan) = par::plan(nrows, work) {
        let chunks = par::run_chunks(nrows, plan, fill);
        // The output is allocated here, on the calling thread, not grown
        // from a chunk's buffers: those come from a worker's allocator
        // arena, and a long-lived result kept there holds the arena's
        // freed pages resident (+10 % peak RSS on `capi_mix`).
        let total: usize = chunks.iter().map(|c| c.1.len()).sum();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        let (mut col_idx, mut vals) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for (ptr, mut c, mut v) in chunks {
            let base = col_idx.len();
            row_ptr.extend(ptr[1..].iter().map(|e| base + e));
            col_idx.append(&mut c);
            vals.append(&mut v);
        }
        return Csr::from_parts(nrows, ncols, row_ptr, col_idx, vals);
    }
    let (row_ptr, col_idx, vals) = fill(0, nrows);
    Csr::from_parts(nrows, ncols, row_ptr, col_idx, vals)
}

/// The `init` of an [`emit_rows`] whose rows need no scratch state.
pub(crate) fn stateless(_: Index, _: Index) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rows_preserves_order() {
        let v = map_rows(1000, 1 << 20, |i| i * 2);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    /// Row `i` holds `i % 7` entries at columns `0, 3, 6, …`, valued
    /// `sqrt(i + j)`: every seventh row is empty.
    fn sample(nrows: usize) -> Csr<f64> {
        emit_rows(nrows, 32, 1 << 20, stateless, |_, i, cols, vals| {
            for j in (0..i % 7).map(|k| 3 * k) {
                cols.push(j);
                vals.push(((i + j) as f64).sqrt());
            }
        })
    }

    #[test]
    fn emit_rows_builds_rows_in_order() {
        let m = sample(20);
        assert_eq!((m.nrows(), m.ncols(), m.row_nvals(7)), (20, 32, 0));
        assert_eq!(m.nvals(), (0..20).map(|i| i % 7).sum::<usize>());
        assert_eq!(m.get(13, 15), Some(&28f64.sqrt()));
        let empty: Csr<i32> = emit_rows(300, 5, 1 << 20, stateless, |_, _, _, _| {});
        assert_eq!(empty, Csr::empty(300, 5));
        assert_eq!(sample(0), Csr::empty(0, 32));
    }

    #[test]
    fn emit_rows_matches_serial_bitwise_at_any_degree() {
        let bits = |m: &Csr<f64>| {
            let vals: Vec<u64> = m.vals().iter().map(|v| v.to_bits()).collect();
            (m.row_ptr().to_vec(), m.col_idx().to_vec(), vals)
        };
        // forced chunking puts chunk boundaries next to empty rows, and
        // at 20 rows × 8 workers makes chunks of one (possibly empty) row
        for nrows in [2, 7, 20, 65, 1000] {
            let serial = par::with_parallelism(1, || sample(nrows));
            for k in [2, 8] {
                let parallel =
                    par::with_cost_model(1, 0, || par::with_parallelism(k, || sample(nrows)));
                assert_eq!(bits(&serial), bits(&parallel), "nrows {nrows} k {k}");
            }
        }
    }
}
