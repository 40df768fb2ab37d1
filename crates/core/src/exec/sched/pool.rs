//! Ready-queue drivers: sequential FIFO and the shared-pool driver.
//!
//! Both drain the same dependency-counted [`Dag`](super::queue::Dag):
//! pop a ready node, compute it, decrement each dependent's pending
//! count, and enqueue dependents that reach zero. Every DAG node is
//! computed — including consumers of failed nodes, whose thunks observe
//! the failure through `ready_storage()` and complete `Failed` with
//! `InvalidObject` (paper §V poisoning). Because node evaluation reads
//! only completed, immutable dependencies, results are identical under
//! any drain order; the drivers differ only in wall-clock shape.
//!
//! The parallel driver runs the drain as one [`workers`] batch on the
//! process-wide pool — the same pool intra-kernel chunks land on — so
//! the two parallelism levels compose in one queue instead of
//! oversubscribing the machine. Under either driver, a node whose
//! kernels fanned out row chunks reports that chunking
//! (`par_chunks`/`chunk_rows`/`par_workers`) on its trace event.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use super::queue::Dag;
use super::trace::{TraceEvent, TraceSink};
#[cfg(feature = "parallel")]
use super::workers::{self, TaskKind};
use crate::algebra::udf;
use crate::kernel::{merge, par, spmspv};
use crate::storage::tiled;

#[allow(clippy::too_many_arguments)] // internal plumbing: one call per driver
fn record(
    sink: Option<&TraceSink>,
    dag: &Dag,
    idx: usize,
    start_ns: u64,
    worker: usize,
    stats: par::ParStats,
    flush: merge::FlushStats,
    direction: Option<&'static str>,
    udf: Option<&'static str>,
    tiles: Vec<(u32, u32)>,
) {
    let Some(sink) = sink else { return };
    let end_ns = sink.now_ns();
    let dn = &dag.nodes[idx];
    let meta = dn.node.trace_meta();
    sink.record(TraceEvent {
        kind: meta.kind,
        rows: meta.rows,
        cols: meta.cols,
        nvals: meta.nvals,
        format: meta.format,
        migrated_from: meta.migrated_from,
        seq: dn.seq,
        ready_ns: dn.ready_ns.load(Ordering::Relaxed),
        start_ns,
        end_ns,
        worker,
        par_chunks: stats.par_chunks,
        chunk_rows: stats.chunk_rows,
        par_workers: stats.par_workers,
        pending_len: flush.pending_len,
        merged_rows: flush.merged_rows,
        direction,
        udf,
        tiles,
    });
}

fn mark_ready(sink: Option<&TraceSink>, dag: &Dag, idx: usize) {
    if let Some(sink) = sink {
        dag.nodes[idx]
            .ready_ns
            .store(sink.now_ns(), Ordering::Relaxed);
    }
}

/// Compute one node and return its intra-kernel chunking, delta-flush,
/// SpMSpV-direction, erased-lane, and touched-tile stats. All five
/// thread-locals are drained *before* the compute too, so a stale
/// carry-over from non-scheduler kernel work on this thread can't be
/// attributed to the node.
type NodeStats = (
    par::ParStats,
    merge::FlushStats,
    Option<&'static str>,
    Option<&'static str>,
    Vec<(u32, u32)>,
);

fn compute_node(dag: &Dag, idx: usize) -> NodeStats {
    let _ = par::take_stats();
    let _ = merge::take_flush_stats();
    let _ = spmspv::take_direction();
    let _ = udf::take_udf();
    let _ = tiled::take_tiles();
    dag.nodes[idx].node.compute();
    (
        par::take_stats(),
        merge::take_flush_stats(),
        spmspv::take_direction(),
        udf::take_udf(),
        tiled::take_tiles(),
    )
}

/// Drain the DAG on the calling thread in FIFO ready order. This is the
/// `SchedPolicy::Sequential` path and the fallback when the `parallel`
/// feature is disabled; trace events carry worker id 0 (though kernels
/// may still fan row chunks out to the pool — that is the E8 "sched
/// seq, kernels parallel" configuration — and the chunking shows up in
/// the events' `par_*` fields).
pub(crate) fn run_sequential(dag: &Dag, sink: Option<&TraceSink>) {
    let mut queue: VecDeque<usize> = dag.initial_ready.iter().copied().collect();
    for &i in &dag.initial_ready {
        mark_ready(sink, dag, i);
    }
    while let Some(idx) = queue.pop_front() {
        let start_ns = sink.map_or(0, TraceSink::now_ns);
        let (stats, flush, direction, udf, tiles) = compute_node(dag, idx);
        record(
            sink, dag, idx, start_ns, 0, stats, flush, direction, udf, tiles,
        );
        for &dep in &dag.nodes[idx].dependents {
            if dag.nodes[dep].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                mark_ready(sink, dag, dep);
                queue.push_back(dep);
            }
        }
    }
}

/// Drain the DAG as one `Node` batch on the shared worker pool.
///
/// Each task computes one node, then publishes dependents whose pending
/// count hit zero as new tasks of the same batch. The submitting thread
/// (the `wait()` caller, worker id 0) helps execute alongside the
/// daemon workers; `run_batch` returns once all `dag.len()` node tasks
/// have run. Termination: every node's pending count reaches zero
/// exactly once (the DAG is acyclic and edge counts are consistent by
/// construction), so exactly `dag.len()` tasks are submitted and the
/// batch's remaining count drains to zero.
#[cfg(feature = "parallel")]
pub(crate) fn run_parallel(dag: &Dag, sink: Option<&TraceSink>) {
    let n = dag.len();
    if n <= 1 {
        return run_sequential(dag, sink);
    }
    for &i in &dag.initial_ready {
        mark_ready(sink, dag, i);
    }
    let pool = workers::pool();
    let run = |batch: &workers::BatchState, idx: usize, worker: usize| {
        let start_ns = sink.map_or(0, TraceSink::now_ns);
        let (stats, flush, direction, udf, tiles) = compute_node(dag, idx);
        record(
            sink, dag, idx, start_ns, worker, stats, flush, direction, udf, tiles,
        );
        for &dep in &dag.nodes[idx].dependents {
            if dag.nodes[dep].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                mark_ready(sink, dag, dep);
                pool.submit(batch, dep);
            }
        }
    };
    pool.run_batch(TaskKind::Node, n, &dag.initial_ready, &run);
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use super::super::queue::build;
    use super::*;
    #[cfg(feature = "parallel")]
    use crate::error::Error;
    use crate::exec::node::Node;
    use crate::exec::Completable;

    fn c(n: &Arc<Node<i32>>) -> Arc<dyn Completable> {
        n.clone() as Arc<dyn Completable>
    }

    /// base → {left, right} → top, each eval counted.
    fn diamond(count: &Arc<AtomicUsize>) -> (Vec<Arc<dyn Completable>>, Arc<Node<i32>>) {
        let cnt = count.clone();
        let base: Arc<Node<i32>> = Node::pending(
            vec![],
            Box::new(move || {
                cnt.fetch_add(1, Ordering::SeqCst);
                Ok(10)
            }),
        );
        let (b1, b2) = (base.clone(), base.clone());
        let left = Node::pending(
            vec![c(&base)],
            Box::new(move || b1.ready_storage().map(|v| *v + 1)),
        );
        let right = Node::pending(
            vec![c(&base)],
            Box::new(move || b2.ready_storage().map(|v| *v + 2)),
        );
        let (l, r) = (left.clone(), right.clone());
        let top = Node::pending(
            vec![c(&left), c(&right)],
            Box::new(move || Ok(*l.ready_storage()? + *r.ready_storage()?)),
        );
        let roots = vec![c(&base), c(&left), c(&right), c(&top)];
        (roots, top)
    }

    #[test]
    fn sequential_driver_completes_diamond_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let (roots, top) = diamond(&count);
        let dag = build(&roots);
        run_sequential(&dag, None);
        assert_eq!(*top.ready_storage().unwrap(), 23);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_driver_completes_diamond_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let (roots, top) = diamond(&count);
        let dag = build(&roots);
        run_parallel(&dag, None);
        assert_eq!(*top.ready_storage().unwrap(), 23);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_driver_poisons_consumers_of_failures() {
        let bad: Arc<Node<i32>> =
            Node::pending(vec![], Box::new(|| Err(Error::Arithmetic("boom".into()))));
        let b = bad.clone();
        let consumer = Node::pending(
            vec![c(&bad)],
            Box::new(move || b.ready_storage().map(|v| *v + 1)),
        );
        let ok = Node::pending(vec![], Box::new(|| Ok(7i32)));
        let roots = vec![c(&bad), c(&consumer), c(&ok)];
        let dag = build(&roots);
        run_parallel(&dag, None);
        assert!(matches!(bad.failure(), Some(Error::Arithmetic(_))));
        assert!(matches!(consumer.failure(), Some(Error::InvalidObject(_))));
        assert_eq!(*ok.ready_storage().unwrap(), 7);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_driver_deep_chain() {
        // a long serial chain exercises the submit/help path heavily
        let mut prev: Arc<Node<i32>> = Node::pending(vec![], Box::new(|| Ok(0)));
        let mut roots = vec![c(&prev)];
        for _ in 0..2_000 {
            let p = prev.clone();
            prev = Node::pending(
                vec![c(&prev)],
                Box::new(move || p.ready_storage().map(|v| *v + 1)),
            );
            roots.push(c(&prev));
        }
        let dag = build(&roots);
        run_parallel(&dag, None);
        assert_eq!(*prev.ready_storage().unwrap(), 2_000);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_driver_traces_multiple_workers_on_wide_dag() {
        // 64 independent nodes, each with a little real work. The pool
        // keeps at least 2 daemon workers even on 1 hardware thread, but a
        // fast worker could still drain every node alone — so the first
        // node holds its worker (up to a deadline) until a second node has
        // started, which only another worker can do.
        use std::time::{Duration, Instant};
        let started = Arc::new(AtomicUsize::new(0));
        let roots: Vec<Arc<dyn Completable>> = (0..64)
            .map(|i| {
                let started = started.clone();
                c(&Node::pending(
                    vec![],
                    Box::new(move || {
                        if started.fetch_add(1, Ordering::SeqCst) == 0 {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                                std::thread::yield_now();
                            }
                        }
                        let mut acc = 0u64;
                        for k in 0..200_000u64 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        std::hint::black_box(acc);
                        Ok(i)
                    }),
                ))
            })
            .collect();
        let dag = build(&roots);
        let sink = TraceSink::new();
        run_parallel(&dag, Some(&sink));
        let events = sink.into_events();
        assert_eq!(events.len(), 64);
        let workers: std::collections::HashSet<usize> = events.iter().map(|e| e.worker).collect();
        assert!(
            workers.len() > 1,
            "expected >1 worker on a wide DAG, trace saw {workers:?}"
        );
        for e in &events {
            assert!(e.start_ns >= e.ready_ns);
            assert!(e.end_ns >= e.start_ns);
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn node_trace_reports_intra_kernel_chunking() {
        // a node whose compute fans row chunks out to the pool reports
        // the chunking on its trace event, under both drivers
        use crate::kernel::par;
        let chunked_eval = || {
            par::with_parallelism(4, || {
                par::with_cost_model(1, 0, || {
                    let plan = par::plan(256, 256).expect("forced plan");
                    let parts = par::run_chunks(256, plan, |s, e| e - s);
                    Ok(parts.iter().sum::<usize>() as i32)
                })
            })
        };
        for parallel_driver in [false, true] {
            let node: Arc<Node<i32>> = Node::pending(vec![], Box::new(chunked_eval));
            let plain: Arc<Node<i32>> = Node::pending(vec![], Box::new(|| Ok(1)));
            let dag = build(&[c(&node), c(&plain)]);
            let sink = TraceSink::new();
            if parallel_driver {
                run_parallel(&dag, Some(&sink));
            } else {
                run_sequential(&dag, Some(&sink));
            }
            let events = sink.into_events();
            let chunked: Vec<_> = events.iter().filter(|e| e.par_chunks > 0).collect();
            assert_eq!(chunked.len(), 1, "exactly one node chunked");
            assert_eq!(chunked[0].chunk_rows, 256);
            assert!(chunked[0].par_workers >= 1);
        }
    }
}
