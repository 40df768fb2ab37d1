//! Execution tracing for `Context::wait`.
//!
//! When tracing is enabled on a [`crate::exec::Context`], each node the
//! `wait()` forcing walk computes produces one [`TraceEvent`]: what kind
//! of operation it was, the shape/occupancy of its result, when it
//! started and finished, and what its kernels noted on the way (row
//! chunking, delta-flush stats, SpMSpV direction, erased-lane operator,
//! touched tiles). Timestamps are nanoseconds relative to the start of
//! the `wait()` that computed the node, so the trace doubles as a
//! wall-clock profile of the sequence.

use std::sync::Arc;
use std::time::Instant;

use crate::algebra::udf;
use crate::exec::Completable;
use crate::kernel::{merge, par, spmspv};
use crate::storage::tiled;

/// Static description of a node for tracing: the operation kind that
/// defined it plus result dims/nvals (zeros until the node is complete).
/// Produced by `Completable::trace_meta`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct TraceMeta {
    pub kind: &'static str,
    pub by_flusher: bool,
    pub rows: usize,
    pub cols: usize,
    pub nvals: usize,
    pub format: &'static str,
    pub migrated_from: Option<&'static str>,
}

/// One node computed by a traced `wait()`.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Operation kind (Table II name such as `"mxm"`, or `"value"`).
    pub kind: &'static str,
    /// Result rows (a vector's size; 0 if the node failed).
    pub rows: usize,
    /// Result columns (1 for vectors; 0 if the node failed).
    pub cols: usize,
    /// Stored elements in the result (0 if the node failed).
    pub nvals: usize,
    /// Storage format chosen for the result (`"csr"` or `"tiled"` for
    /// matrix stores; `"sparse"` for vectors and `"sparse"`/empty shapes
    /// if the node failed).
    pub format: &'static str,
    /// `Some(from)` when the format policy migrated the result out of the
    /// layout it was produced in — the trace's migration event.
    pub migrated_from: Option<&'static str>,
    /// Program-order index within the waited sequence, if this node was
    /// submitted through the context (interior nodes reachable only as
    /// dependencies have `None`).
    pub seq: Option<usize>,
    /// When the computation began (ns since wait start).
    pub start_ns: u64,
    /// When the computation finished (ns since wait start).
    pub end_ns: u64,
    /// Intra-kernel row chunks this node's compute fanned out to the
    /// shared pool (0 when every kernel stayed on the serial path).
    pub par_chunks: usize,
    /// Output rows covered by those chunks.
    pub chunk_rows: usize,
    /// Most distinct workers observed executing one of those chunk
    /// batches.
    pub par_workers: usize,
    /// For `kind == "flush"` nodes: pending delta entries merged into
    /// the backing store (0 for every other kind).
    pub pending_len: usize,
    /// For `kind == "flush"` nodes: distinct output rows (vector:
    /// indices) those entries touched.
    pub merged_rows: usize,
    /// For `kind == "flush"` nodes: `true` when the background flusher
    /// drained the log into the node. Whichever `wait()` forces it first
    /// computes the merge, so a reader whose snapshot captured the
    /// flusher's still-pending node records this event without having
    /// drained anything.
    pub by_flusher: bool,
    /// For matrix–vector products: the direction the SpMSpV dispatch
    /// chose (`"push"`, `"pull"`, or `"dense"`); `None` for every other
    /// kind. This is the trace evidence that direction optimization
    /// actually switches mid-traversal.
    pub direction: Option<&'static str>,
    /// `Some(op_name)` when this node's kernels ran a runtime-registered
    /// operator (`algebra::udf`) — the erased kernel lane. `None` for
    /// every node that stayed on the monomorphized built-in lane.
    pub udf: Option<&'static str>,
    /// Tile coordinates `(stripe, tile_col)` this node's kernels touched
    /// in a tiled operand or output — materialized tile views during a
    /// multiply, or dirty tiles rebuilt by a tile-granular flush. Empty
    /// for slab stores. Sorted and deduplicated.
    pub tiles: Vec<(u32, u32)>,
}

impl TraceEvent {
    /// Time spent computing.
    pub fn run_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the kernels noted on this thread since the last drain: the five
/// thread-local side channels, taken together.
type Notes = (
    par::ParStats,
    merge::FlushStats,
    Option<&'static str>,
    Option<&'static str>,
    Vec<(u32, u32)>,
);

fn take_notes() -> Notes {
    (
        par::take_stats(),
        merge::take_flush_stats(),
        spmspv::take_direction(),
        udf::take_udf(),
        tiled::take_tiles(),
    )
}

/// Collects [`TraceEvent`]s from one `wait()`.
pub(crate) struct TraceSink {
    epoch: Instant,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    pub(crate) fn new() -> Self {
        TraceSink {
            epoch: Instant::now(),
            events: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Compute `node` on this thread and record its event. The notes
    /// are drained *before* the compute too, so a stale carry-over from
    /// earlier kernel work on this thread is not attributed to the node.
    pub(crate) fn compute(&mut self, node: &Arc<dyn Completable>, seq: Option<usize>) {
        let _ = take_notes();
        let start_ns = self.now_ns();
        node.compute();
        let end_ns = self.now_ns();
        let (stats, flush, direction, udf, tiles) = take_notes();
        let meta = node.trace_meta();
        self.events.push(TraceEvent {
            kind: meta.kind,
            rows: meta.rows,
            cols: meta.cols,
            nvals: meta.nvals,
            format: meta.format,
            migrated_from: meta.migrated_from,
            seq,
            start_ns,
            end_ns,
            par_chunks: stats.par_chunks,
            chunk_rows: stats.chunk_rows,
            par_workers: stats.par_workers,
            pending_len: flush.pending_len,
            merged_rows: flush.merged_rows,
            by_flusher: meta.by_flusher,
            direction,
            udf,
            tiles,
        });
    }

    pub(crate) fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}
