//! Intra-kernel data parallelism: row-partitioned execution of the hot
//! kernels on the process-wide worker pool (`kernel::workers`).
//!
//! The paper's opaque-object design (§II) licenses this freely: the
//! implementation controls physical execution as long as each
//! operation's Table II semantics are preserved. Preservation here is
//! *bitwise*: a kernel splits its output rows into chunks, each chunk is
//! evaluated independently (per-row results never depend on chunk
//! boundaries), and the chunk results are concatenated **in row order**
//! — so the assembled output is identical to the serial path's for every
//! worker count and interleaving, floats included.
//!
//! A cost model keeps tiny operations serial: an operation goes parallel
//! only when its output rows and estimated work both clear thresholds
//! (overridable via [`with_cost_model`], which tests use to force
//! chunking on small fixtures).
//!
//! The effective degree — how many chunks an operation fans out — and
//! the cost-model override are session settings, resolved in
//! [`crate::options`]: [`with_parallelism`] on the current thread, else
//! the session degree (the C API's `Config::parallelism`), else
//! `GRB_TEST_THREADS` / `GRB_THREADS`, else the hardware's parallelism.

use crate::exec::trace;
use crate::kernel::workers;
pub use crate::options::{effective_parallelism, with_cost_model, with_parallelism};

/// Default cost-model floor on output rows for going parallel.
pub const MIN_PAR_ROWS: usize = 128;
/// Default cost-model floor on estimated work (stored elements touched).
pub const MIN_PAR_WORK: usize = 1 << 13;
/// Rows per chunk never drop below this under the default cost model —
/// a span small enough to stay cache-resident, large enough that queue
/// traffic stays negligible next to the row work.
const MIN_SPAN: usize = 64;

/// Chunking decision for one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) chunks: usize,
    pub(crate) span: usize,
}

/// Decide whether a kernel over `rows` output rows with `work` estimated
/// element touches should go parallel, and how to chunk it. `None` means
/// take the serial path (tiny op or degree 1).
pub(crate) fn plan(rows: usize, work: usize) -> Option<Plan> {
    let overridden = crate::options::cost_model();
    let (min_rows, min_work) = overridden.unwrap_or((MIN_PAR_ROWS, MIN_PAR_WORK));
    if rows < min_rows.max(2) || work < min_work {
        return None;
    }
    let k = effective_parallelism();
    if k <= 1 {
        return None;
    }
    // ~4 chunks per worker for load balance; spans never smaller
    // than MIN_SPAN unless a test's cost override asks for it.
    let min_span = if overridden.is_some() { 1 } else { MIN_SPAN };
    let span = rows.div_ceil(k * 4).max(min_span);
    let chunks = rows.div_ceil(span);
    if chunks <= 1 {
        return None;
    }
    Some(Plan { chunks, span })
}

/// Evaluate `eval(start, end)` over the planned row chunks of
/// `0..rows` on the shared pool and return the chunk results **in chunk
/// order** — the deterministic merge that makes parallel output bitwise
/// equal to serial output.
pub(crate) fn run_chunks<C, F>(rows: usize, plan: Plan, eval: F) -> Vec<C>
where
    C: Send,
    F: Fn(usize, usize) -> C + Sync,
{
    let Plan { chunks, span } = plan;
    let slots: Vec<parking_lot::Mutex<Option<(usize, C)>>> =
        (0..chunks).map(|_| parking_lot::Mutex::new(None)).collect();
    let run = |idx: usize, worker: usize| {
        let start = idx * span;
        let end = rows.min(start + span);
        let out = eval(start, end);
        *slots[idx].lock() = Some((worker, out));
    };
    workers::pool().run_batch(chunks, &run);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(chunks);
    for slot in slots {
        let (worker, c) = slot.into_inner().expect("every chunk executed");
        seen.insert(worker);
        out.push(c);
    }
    trace::note(|n| {
        n.par_chunks.set(n.par_chunks.get() + chunks);
        n.chunk_rows.set(n.chunk_rows.get() + rows);
        n.par_workers.set(n.par_workers.get().max(seen.len()));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_keeps_tiny_ops_serial() {
        with_parallelism(8, || {
            assert_eq!(plan(4, 1 << 20), None); // too few rows
            assert_eq!(plan(1 << 20, 4), None); // too little work
            assert!(plan(1 << 16, 1 << 20).is_some());
        });
    }

    #[test]
    fn degree_one_is_always_serial() {
        with_parallelism(1, || {
            assert_eq!(plan(1 << 20, 1 << 20), None);
        });
    }

    #[test]
    fn cost_override_forces_chunking_on_small_inputs() {
        with_parallelism(4, || {
            with_cost_model(1, 0, || {
                let p = plan(5, 0).expect("forced parallel");
                assert!(p.chunks >= 2);
                assert!(p.span * p.chunks >= 5);
            })
        });
    }

    #[test]
    fn chunk_results_come_back_in_row_order() {
        with_parallelism(4, || {
            with_cost_model(1, 0, || {
                let rows = 1000;
                let p = plan(rows, rows).unwrap();
                let parts = run_chunks(rows, p, |s, e| (s..e).collect::<Vec<_>>());
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..rows).collect::<Vec<_>>());
                let st = trace::take_notes();
                assert_eq!(st.par_chunks, p.chunks);
                assert_eq!(st.chunk_rows, rows);
                assert!(st.par_workers >= 1);
            })
        });
    }

    #[test]
    fn spans_have_a_floor_under_the_default_model() {
        with_parallelism(64, || {
            let p = plan(1 << 10, 1 << 20).unwrap();
            assert!(p.span >= 64, "span {} below floor", p.span);
        });
    }
}
