//! Execution tracing for `Context::wait`.
//!
//! When tracing is enabled on a [`crate::exec::Context`], each node the
//! `wait()` forcing walk computes produces one [`TraceEvent`]: what kind
//! of operation it was, the shape/occupancy of its result, when it
//! started and finished, and what its kernels noted on the way (row
//! chunking, delta-flush stats, SpMSpV direction, erased-lane operator,
//! the tiles a flush rebuilt). Timestamps are nanoseconds relative to the start of
//! the `wait()` that computed the node, so the trace doubles as a
//! wall-clock profile of the sequence.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::exec::Completable;

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
}

/// One node computed by a traced `wait()`.
#[derive(Debug, Clone, Default)]
pub struct TraceEvent {
    /// Operation kind (Table II name such as `"mxm"`, or `"value"`).
    pub kind: &'static str,
    /// Result rows (a vector's size; 0 if the node failed).
    pub rows: usize,
    /// Result columns (1 for vectors; 0 if the node failed).
    pub cols: usize,
    /// Stored elements in the result (0 if the node failed).
    pub nvals: usize,
    /// The result's storage layout (`"csr"` or `"tiled"` for matrix
    /// stores; `"sparse"` for vectors and `"sparse"`/empty shapes if the
    /// node failed).
    pub format: &'static str,
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
    /// Tile coordinates `(stripe, tile_col)` of the dirty tiles a
    /// tile-granular flush rebuilt while computing this node. Empty for
    /// slab stores and for nodes that flushed nothing. Sorted and
    /// deduplicated.
    pub tiles: Vec<(u32, u32)>,
}

impl TraceEvent {
    /// Time spent computing.
    pub fn run_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What kernels noted on one thread since the last drain, one field per
/// note; each names the [`TraceEvent`] field it drains into. Kernels
/// write through [`note`]; [`TraceSink::compute`] drains the record
/// before and after each node. A note made inside a kernel chunk on a
/// pool worker stays on that worker: only the submitting thread's notes
/// reach the trace.
pub(crate) struct Notes {
    pub(crate) par_chunks: Cell<usize>,
    pub(crate) chunk_rows: Cell<usize>,
    pub(crate) par_workers: Cell<usize>,
    pub(crate) pending_len: Cell<usize>,
    pub(crate) merged_rows: Cell<usize>,
    /// The last SpMSpV dispatch's direction.
    pub(crate) direction: Cell<Option<&'static str>>,
    /// The first runtime-registered operator applied: one representative
    /// name marks the erased lane.
    pub(crate) udf: Cell<Option<&'static str>>,
    /// Unsorted, with repeats, until drained.
    pub(crate) tiles: Cell<Vec<(u32, u32)>>,
}

thread_local! {
    static NOTES: Notes = const {
        Notes {
            par_chunks: Cell::new(0),
            chunk_rows: Cell::new(0),
            par_workers: Cell::new(0),
            pending_len: Cell::new(0),
            merged_rows: Cell::new(0),
            direction: Cell::new(None),
            udf: Cell::new(None),
            tiles: Cell::new(Vec::new()),
        }
    };
}

/// Write to this thread's kernel notes.
pub(crate) fn note(f: impl FnOnce(&Notes)) {
    NOTES.with(f)
}

impl Notes {
    /// A flush merged `pending_len` entries into `merged_rows` rows.
    pub(crate) fn add_flush(&self, pending_len: usize, merged_rows: usize) {
        self.pending_len.set(self.pending_len.get() + pending_len);
        self.merged_rows.set(self.merged_rows.get() + merged_rows);
    }

    /// A tile-granular flush rebuilt these dirty tiles.
    pub(crate) fn add_tiles(&self, coords: impl IntoIterator<Item = (u32, u32)>) {
        let mut tiles = self.tiles.take();
        tiles.extend(coords);
        self.tiles.set(tiles);
    }

    fn drain(&self) -> TraceEvent {
        let mut tiles = self.tiles.take();
        tiles.sort_unstable();
        tiles.dedup();
        TraceEvent {
            par_chunks: self.par_chunks.take(),
            chunk_rows: self.chunk_rows.take(),
            par_workers: self.par_workers.take(),
            pending_len: self.pending_len.take(),
            merged_rows: self.merged_rows.take(),
            direction: self.direction.take(),
            udf: self.udf.take(),
            tiles,
            ..TraceEvent::default()
        }
    }
}

/// Drain what kernels noted on this thread since the last drain, as the
/// kernel fields of an otherwise empty event: what a traced `wait()`
/// records per node, for work forced outside one (PageRank's `vxm`,
/// which its own reductions force).
#[doc(hidden)]
pub fn take_notes() -> TraceEvent {
    NOTES.with(Notes::drain)
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
        take_notes();
        let start_ns = self.now_ns();
        node.compute();
        let end_ns = self.now_ns();
        let meta = node.trace_meta();
        self.events.push(TraceEvent {
            kind: meta.kind,
            rows: meta.rows,
            cols: meta.cols,
            nvals: meta.nvals,
            format: meta.format,
            seq,
            start_ns,
            end_ns,
            by_flusher: meta.by_flusher,
            ..take_notes()
        });
    }

    pub(crate) fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}
