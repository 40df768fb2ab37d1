//! Execution tracing for the scheduler.
//!
//! When tracing is enabled on a [`crate::exec::Context`], each node the
//! scheduler completes produces one [`TraceEvent`]: what kind of
//! operation it was, the shape/occupancy of its result, when it became
//! ready, when a worker picked it up and finished it, and which worker
//! ran it. Timestamps are nanoseconds relative to the start of the
//! `wait()` that executed the node, so events from one wait are directly
//! comparable and the trace doubles as a wall-clock profile of the DAG.

use std::time::Instant;

use parking_lot::Mutex;

/// Static description of a node for tracing: the operation kind that
/// defined it plus result dims/nvals (zeros until the node is complete).
/// Produced by `Completable::trace_meta`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct TraceMeta {
    pub kind: &'static str,
    pub rows: usize,
    pub cols: usize,
    pub nvals: usize,
    pub format: &'static str,
    pub migrated_from: Option<&'static str>,
}

/// One completed node, as observed by the scheduler.
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
    /// Storage format chosen for the result (`"csr"`, `"csc"`,
    /// `"hyper"`, `"tiled"` for matrix stores; `"sparse"` for vectors
    /// and `"sparse"`/empty shapes if the node failed).
    pub format: &'static str,
    /// `Some(from)` when the format policy migrated the result out of the
    /// layout it was produced in — the trace's migration event.
    pub migrated_from: Option<&'static str>,
    /// Program-order index within the waited sequence, if this node was
    /// submitted through the context (interior nodes reachable only as
    /// dependencies have `None`).
    pub seq: Option<usize>,
    /// When the node's last dependency completed (ns since wait start).
    pub ready_ns: u64,
    /// When a worker began computing it (ns since wait start).
    pub start_ns: u64,
    /// When the computation finished (ns since wait start).
    pub end_ns: u64,
    /// Index of the worker thread that ran it (0 = sequential driver or
    /// the waiting thread helping the pool).
    pub worker: usize,
    /// Intra-kernel row chunks this node's compute fanned out to the
    /// shared pool (0 when every kernel stayed on the serial path).
    pub par_chunks: usize,
    /// Output rows covered by those chunks.
    pub chunk_rows: usize,
    /// Most distinct workers observed executing one of those chunk
    /// batches — separates inter-op from intra-op parallelism in E8.
    pub par_workers: usize,
    /// For `kind == "flush"` nodes: pending delta entries merged into
    /// the backing store (0 for every other kind).
    pub pending_len: usize,
    /// For `kind == "flush"` nodes: distinct output rows (vector:
    /// indices) those entries touched.
    pub merged_rows: usize,
    /// `Some` only for synthetic `kind == "fused"` events emitted by the
    /// `exec::fuse` rewrite pass: which producer was absorbed into which
    /// consumer, and by which rewrite. Timings are zero for these events
    /// (the pass runs before the clock-bearing schedulers start).
    pub fused: Option<crate::exec::FusedNote>,
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
    /// Time spent ready but waiting for a worker.
    pub fn queue_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.ready_ns)
    }

    /// Time spent computing.
    pub fn run_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects [`TraceEvent`]s from one scheduler run. Shared by reference
/// across workers; the vector is appended under a mutex only twice per
/// node (cheap next to any real kernel).
pub(crate) struct TraceSink {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    pub(crate) fn new() -> Self {
        TraceSink {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since this sink's epoch (the start of the wait).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    pub(crate) fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_times() {
        let e = TraceEvent {
            kind: "mxm",
            rows: 2,
            cols: 2,
            nvals: 3,
            format: "csr",
            migrated_from: None,
            seq: Some(0),
            ready_ns: 100,
            start_ns: 150,
            end_ns: 400,
            worker: 1,
            par_chunks: 0,
            chunk_rows: 0,
            par_workers: 0,
            pending_len: 0,
            merged_rows: 0,
            fused: None,
            direction: None,
            udf: None,
            tiles: Vec::new(),
        };
        assert_eq!(e.queue_ns(), 50);
        assert_eq!(e.run_ns(), 250);
    }

    #[test]
    fn sink_collects_in_order_per_thread() {
        let sink = TraceSink::new();
        let t0 = sink.now_ns();
        sink.record(TraceEvent {
            kind: "value",
            rows: 1,
            cols: 1,
            nvals: 1,
            format: "sparse",
            migrated_from: None,
            seq: None,
            ready_ns: t0,
            start_ns: t0,
            end_ns: sink.now_ns(),
            worker: 0,
            par_chunks: 0,
            chunk_rows: 0,
            par_workers: 0,
            pending_len: 0,
            merged_rows: 0,
            fused: None,
            direction: None,
            udf: None,
            tiles: Vec::new(),
        });
        let ev = sink.into_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, "value");
    }
}
