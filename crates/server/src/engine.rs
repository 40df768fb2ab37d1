//! Request execution against the GraphBLAS engine: every query is a
//! (small) GraphBLAS program over the named graph's adjacency matrix,
//! run on the service's shared blocking [`Context`] — which means the
//! heavy kernels inside (mxm, mxv, the delta-log overlay merge) fan out
//! onto the engine's shared worker pool exactly like library use.
//!
//! Every read (HAS/DEG/HOP/BFS/PR) runs against an MVCC **snapshot** of
//! the adjacency matrix pinned at the request's start: `EDGE+`/`EDGE-`
//! traffic keeps appending to the live handle's delta log (merged by
//! the engine's background auto-flusher) and never stalls a reader —
//! nor does a long PageRank ever stall ingest.
//!
//! A BFS is one snapshot plus one [`bfs_levels`] call, an ordinary
//! job like the others.

use std::sync::atomic::Ordering;

use graphblas_algorithms::{bfs_levels, pagerank};
use graphblas_core::prelude::*;

use crate::graphs::{GraphEntry, Registry};
use crate::protocol::{Reply, Request};
use crate::sched::Job;
use crate::stats::ServiceStats;

/// Cap on PageRank power iterations a single request may demand.
const PR_MAX_ITERS: usize = 100;

/// Run one scheduler job to completion: fill its reply slot and
/// account it done (latency + counters).
pub(crate) fn run_job(ctx: &Context, graphs: &Registry, stats: &ServiceStats, job: Job) {
    let reply = execute_one(ctx, graphs, stats, &job.request);
    let counters = &job.tenant.counters;
    match &reply {
        Reply::Err(_) => counters.errors.fetch_add(1, Ordering::Relaxed),
        _ => counters.completed.fetch_add(1, Ordering::Relaxed),
    };
    job.tenant
        .latency
        .record(job.submitted.elapsed().as_nanos() as u64);
    job.slot.fill(reply);
}

fn with_graph(graphs: &Registry, name: &str, f: impl FnOnce(&GraphEntry) -> Reply) -> Reply {
    match graphs.get(name) {
        Some(entry) => f(&entry),
        None => Reply::Err(format!("no such graph {name:?}")),
    }
}

fn check_bounds(entry: &GraphEntry, ids: &[Index]) -> Option<Reply> {
    ids.iter().find(|&&i| i >= entry.nodes).map(|&i| {
        Reply::Err(format!(
            "vertex {i} out of range (graph has {} nodes)",
            entry.nodes
        ))
    })
}

fn err_reply(e: Error) -> Reply {
    Reply::Err(e.to_string())
}

/// The out-neighborhood of `v` as a stored-index vector: one `vxm` of
/// the indicator vector against a snapshot of the adjacency (lor.land).
fn neighbors(ctx: &Context, entry: &GraphEntry, v: Index) -> Result<Vec<Index>> {
    let n = entry.nodes;
    let e = Vector::from_tuples(n, &[(v, true)])?;
    let w = Vector::<bool>::new(n)?;
    let frozen = entry.matrix.snapshot().to_matrix();
    ctx.vxm(
        &w,
        NoMask,
        NoAccum,
        lor_land(),
        &e,
        &frozen,
        &Descriptor::default().replace(),
    )?;
    Ok(w.extract_tuples()?.into_iter().map(|(i, _)| i).collect())
}

/// Execute one data request.
pub(crate) fn execute_one(
    ctx: &Context,
    graphs: &Registry,
    stats: &ServiceStats,
    request: &Request,
) -> Reply {
    match request {
        Request::AddEdge { graph, u, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*u, *v]) {
                return r;
            }
            // O(1) amortized: appends to the matrix's pending-update
            // delta log; merged at the next completion-forcing read
            match entry.matrix.set(*u, *v, true) {
                Ok(()) => Reply::Ok,
                Err(e) => err_reply(e),
            }
        }),
        Request::RemoveEdge { graph, u, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*u, *v]) {
                return r;
            }
            match entry.matrix.remove(*u, *v) {
                Ok(()) => Reply::Ok,
                Err(e) => err_reply(e),
            }
        }),
        Request::HasEdge { graph, u, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*u, *v]) {
                return r;
            }
            // Snapshot point probe: binary-searches the sealed runs and
            // falls back to the base — never drains the writers' log.
            match entry.matrix.snapshot().get(*u, *v) {
                Ok(x) => Reply::Bool(x.is_some()),
                Err(e) => err_reply(e),
            }
        }),
        Request::Degree { graph, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*v]) {
                return r;
            }
            match neighbors(ctx, entry, *v) {
                Ok(ids) => Reply::Count(ids.len() as u64),
                Err(e) => err_reply(e),
            }
        }),
        Request::OneHop { graph, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*v]) {
                return r;
            }
            match neighbors(ctx, entry, *v) {
                Ok(ids) => Reply::Ids(ids),
                Err(e) => err_reply(e),
            }
        }),
        Request::Bfs { graph, src } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*src]) {
                return r;
            }
            stats.bfs_requests.fetch_add(1, Ordering::Relaxed);
            stats.bfs_batches.fetch_add(1, Ordering::Relaxed);
            // the traversal sweeps one frozen adjacency, and concurrent
            // EDGE+/- never stall it
            let frozen = entry.matrix.snapshot().to_matrix();
            match bfs_levels(ctx, &frozen, *src) {
                Ok(levels) => {
                    Reply::Levels(levels.iter().map(|l| l.map_or(-1, |d| d as i64)).collect())
                }
                Err(e) => err_reply(e),
            }
        }),
        Request::Pagerank { graph, iters } => with_graph(graphs, graph, |entry| {
            let iters = (*iters).clamp(1, PR_MAX_ITERS);
            let frozen = entry.matrix.snapshot().to_matrix();
            match pagerank(ctx, &frozen, 0.85, 1e-9, iters) {
                Ok((ranks, _)) => Reply::Ranks(ranks),
                Err(e) => err_reply(e),
            }
        }),
        // control-plane requests are answered inline by the service
        Request::Hello { .. } | Request::CreateGraph { .. } | Request::Stats => {
            Reply::Err("control request reached the execution engine".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_algorithms::bfs_multi;

    struct Fixture {
        ctx: Context,
        graphs: Registry,
        stats: ServiceStats,
    }

    impl Fixture {
        fn new() -> Self {
            let graphs = Registry::new();
            graphs.create("g", 6, None).unwrap();
            let g = graphs.get("g").unwrap();
            for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
                g.matrix.set(u, v, true).unwrap();
            }
            Fixture {
                ctx: Context::blocking(),
                graphs,
                stats: ServiceStats::default(),
            }
        }

        fn run(&self, request: Request) -> Reply {
            execute_one(&self.ctx, &self.graphs, &self.stats, &request)
        }
    }

    fn g() -> String {
        "g".into()
    }

    #[test]
    fn point_ops_and_neighborhood() {
        let f = Fixture::new();
        let has = |u, v| f.run(Request::HasEdge { graph: g(), u, v });
        assert_eq!(has(0, 1), Reply::Bool(true));
        assert_eq!(has(1, 0), Reply::Bool(false));
        assert_eq!(f.run(Request::Degree { graph: g(), v: 0 }), Reply::Count(2));
        assert_eq!(
            f.run(Request::OneHop { graph: g(), v: 0 }),
            Reply::Ids(vec![1, 2])
        );
        assert_eq!(
            f.run(Request::RemoveEdge {
                graph: g(),
                u: 0,
                v: 1
            }),
            Reply::Ok
        );
        assert_eq!(has(0, 1), Reply::Bool(false));
    }

    #[test]
    fn missing_graph_and_bounds_are_typed_errors() {
        let f = Fixture::new();
        let nope = Request::Degree {
            graph: "nope".into(),
            v: 0,
        };
        assert!(matches!(f.run(nope), Reply::Err(_)));
        let far = Request::HasEdge {
            graph: g(),
            u: 0,
            v: 99,
        };
        assert!(matches!(f.run(far), Reply::Err(_)));
    }

    #[test]
    fn pagerank_runs_and_sums_to_one() {
        let f = Fixture::new();
        let Reply::Ranks(r) = f.run(Request::Pagerank {
            graph: g(),
            iters: 30,
        }) else {
            panic!("expected ranks")
        };
        assert_eq!(r.len(), 6);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum={sum}");
    }

    #[test]
    fn bfs_answers_per_source_and_rejects_out_of_range() {
        let f = Fixture::new();
        let bfs = |src| f.run(Request::Bfs { graph: g(), src });
        assert_eq!(bfs(0), Reply::Levels(vec![0, 1, 1, 2, 3, -1]));
        assert_eq!(bfs(3), Reply::Levels(vec![-1, -1, -1, 0, 1, -1]));
        let Reply::Err(msg) = bfs(99) else {
            panic!("an out-of-range source must be an ERR")
        };
        assert!(msg.contains("out of range"), "{msg}");
        // a rejected source launches nothing
        assert_eq!(f.stats.bfs_requests.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn bfs_matches_bfs_multi_and_counts_one_launch_per_request() {
        let f = Fixture::new();
        let frozen = f.graphs.get("g").unwrap().matrix.snapshot().to_matrix();
        for src in 0..6 {
            let want: Vec<i64> = bfs_multi(&f.ctx, &frozen, &[src]).unwrap()[0]
                .iter()
                .map(|l| l.map_or(-1, |d| d as i64))
                .collect();
            assert_eq!(
                f.run(Request::Bfs { graph: g(), src }),
                Reply::Levels(want),
                "source {src}"
            );
        }
        assert_eq!(f.stats.bfs_requests.load(Ordering::Relaxed), 6);
        assert_eq!(f.stats.bfs_batches.load(Ordering::Relaxed), 6);
    }
}
