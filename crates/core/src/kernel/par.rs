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
//! The effective degree — how many chunks an operation fans out — is
//! resolved as: [`with_parallelism`] override on the current thread,
//! else the global [`set_default_parallelism`] knob (the C API's
//! `Config::parallelism`), else `GRB_TEST_THREADS` / `GRB_THREADS`,
//! else the hardware's parallelism.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(feature = "parallel")]
use crate::kernel::workers;

/// Default cost-model floor on output rows for going parallel.
pub const MIN_PAR_ROWS: usize = 128;
/// Default cost-model floor on estimated work (stored elements touched).
pub const MIN_PAR_WORK: usize = 1 << 13;
/// Rows per chunk never drop below this under the default cost model —
/// a span small enough to stay cache-resident, large enough that queue
/// traffic stays negligible next to the row work.
#[cfg(feature = "parallel")]
const MIN_SPAN: usize = 64;

/// Global default degree; 0 = auto (env, then hardware).
static DEFAULT_DEGREE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread degree override; 0 = no override.
    static DEGREE_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Per-thread `(min_rows, min_work)` cost-model override.
    static COST_OVERRIDE: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// Chunking observed on this thread since the last [`take_stats`] —
    /// a traced `wait()` drains it into the trace after each node compute.
    static STATS: Cell<ParStats> = const { Cell::new(ParStats::ZERO) };
}

/// Set the process-wide default parallelism degree (`None` = auto).
/// This is the `capi::Config::parallelism` knob.
pub fn set_default_parallelism(k: Option<usize>) {
    DEFAULT_DEGREE.store(k.unwrap_or(0), Ordering::Relaxed);
}

/// The process-wide default degree, if one was configured.
pub fn default_parallelism() -> Option<usize> {
    match DEFAULT_DEGREE.load(Ordering::Relaxed) {
        0 => None,
        k => Some(k),
    }
}

/// Run `f` with the intra-kernel degree forced to `k` on this thread
/// (`0` restores auto). `k = 1` forces the serial path; determinism
/// tests rely on `with_parallelism(1, …) == with_parallelism(8, …)`
/// bitwise.
pub fn with_parallelism<R>(k: usize, f: impl FnOnce() -> R) -> R {
    let prev = DEGREE_OVERRIDE.with(|c| c.replace(k));
    let _restore = Restore(&DEGREE_OVERRIDE, prev);
    f()
}

/// Run `f` with the cost-model thresholds overridden on this thread —
/// `(1, 0)` makes every multi-row kernel chunk, however small.
pub fn with_cost_model<R>(min_rows: usize, min_work: usize, f: impl FnOnce() -> R) -> R {
    let prev = COST_OVERRIDE.with(|c| c.replace(Some((min_rows, min_work))));
    let _restore = RestoreCost(prev);
    f()
}

struct Restore(&'static std::thread::LocalKey<Cell<usize>>, usize);
impl Drop for Restore {
    fn drop(&mut self) {
        let v = self.1;
        self.0.with(|c| c.set(v));
    }
}

struct RestoreCost(Option<(usize, usize)>);
impl Drop for RestoreCost {
    fn drop(&mut self) {
        let v = self.0;
        COST_OVERRIDE.with(|c| c.set(v));
    }
}

/// Degree before any thread-local override: knob > env > hardware.
/// Also decides the worker pool's width at first use.
pub(crate) fn resolved_degree() -> usize {
    default_parallelism()
        .or(crate::env::env().threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// The degree kernels on this thread will fan out to.
pub fn effective_parallelism() -> usize {
    match DEGREE_OVERRIDE.with(|c| c.get()) {
        0 => resolved_degree(),
        k => k,
    }
}

/// Chunking decision for one kernel invocation.
#[cfg(feature = "parallel")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) chunks: usize,
    pub(crate) span: usize,
}

/// Decide whether a kernel over `rows` output rows with `work` estimated
/// element touches should go parallel, and how to chunk it. `None` means
/// take the serial path (tiny op or degree 1).
#[cfg(feature = "parallel")]
pub(crate) fn plan(rows: usize, work: usize) -> Option<Plan> {
    {
        let overridden = COST_OVERRIDE.with(|c| c.get());
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
}

/// Chunking performed on this thread, for the execution trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Row chunks fanned out to the pool.
    pub par_chunks: usize,
    /// Output rows covered by those chunks.
    pub chunk_rows: usize,
    /// Most distinct workers observed executing one batch.
    pub par_workers: usize,
}

impl ParStats {
    const ZERO: ParStats = ParStats {
        par_chunks: 0,
        chunk_rows: 0,
        par_workers: 0,
    };
}

/// Drain the chunking stats accumulated on this thread since the last
/// call (a traced `wait()` calls this right after each node compute).
pub fn take_stats() -> ParStats {
    STATS.with(|s| s.replace(ParStats::ZERO))
}

#[cfg(feature = "parallel")]
fn note_stats(chunks: usize, rows: usize, distinct_workers: usize) {
    STATS.with(|s| {
        let mut st = s.get();
        st.par_chunks += chunks;
        st.chunk_rows += rows;
        st.par_workers = st.par_workers.max(distinct_workers);
        s.set(st);
    });
}

/// Evaluate `eval(start, end)` over the planned row chunks of
/// `0..rows` on the shared pool and return the chunk results **in chunk
/// order** — the deterministic merge that makes parallel output bitwise
/// equal to serial output.
#[cfg(feature = "parallel")]
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
    note_stats(chunks, rows, seen.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_override_wins_and_restores() {
        let outer = effective_parallelism();
        with_parallelism(3, || {
            assert_eq!(effective_parallelism(), 3);
            with_parallelism(1, || assert_eq!(effective_parallelism(), 1));
            assert_eq!(effective_parallelism(), 3);
        });
        assert_eq!(effective_parallelism(), outer);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn cost_model_keeps_tiny_ops_serial() {
        with_parallelism(8, || {
            assert_eq!(plan(4, 1 << 20), None); // too few rows
            assert_eq!(plan(1 << 20, 4), None); // too little work
            assert!(plan(1 << 16, 1 << 20).is_some());
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn degree_one_is_always_serial() {
        with_parallelism(1, || {
            assert_eq!(plan(1 << 20, 1 << 20), None);
        });
    }

    #[cfg(feature = "parallel")]
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

    #[cfg(feature = "parallel")]
    #[test]
    fn chunk_results_come_back_in_row_order() {
        with_parallelism(4, || {
            with_cost_model(1, 0, || {
                let rows = 1000;
                let p = plan(rows, rows).unwrap();
                let parts = run_chunks(rows, p, |s, e| (s..e).collect::<Vec<_>>());
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..rows).collect::<Vec<_>>());
                let st = take_stats();
                assert_eq!(st.par_chunks, p.chunks);
                assert_eq!(st.chunk_rows, rows);
                assert!(st.par_workers >= 1);
            })
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn spans_have_a_floor_under_the_default_model() {
        with_parallelism(64, || {
            let p = plan(1 << 10, 1 << 20).unwrap();
            assert!(p.span >= 64, "span {} below floor", p.span);
        });
    }
}
