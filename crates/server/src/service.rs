//! The in-process service: named graphs + fair scheduler + a fixed
//! crew of executor threads driving requests onto the GraphBLAS
//! engine's shared worker pool.
//!
//! [`Service::submit`] is the synchronous request API every front end
//! uses — the TCP listener ([`crate::net`]), the load-generator bench,
//! and the integration tests all speak to the same object. Control-
//! plane requests (`HELLO`, `CREATE`, `STATS`) are answered inline;
//! data requests pass admission control, wait their turn under stride
//! fair scheduling, and are executed one at a time by an executor
//! thread.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use graphblas_core::exec::pool_status;
use graphblas_core::{snapshot_stats, Context};

use crate::engine;
use crate::graphs::Registry;
use crate::protocol::{Reply, Request};
use crate::sched::{Admit, Scheduler, Tenant};
use crate::stats::ServiceStats;

/// Service tunables. `Default` is sized for tests and small machines;
/// the binary and the bench override per deployment.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Executor threads pulling jobs from the scheduler.
    pub workers: usize,
    /// Per-tenant admission queue bound (beyond it: `OVERLOADED`).
    pub queue_cap: usize,
    /// Weight assigned to tenants first seen without a `HELLO`.
    pub default_weight: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_cap: 64,
            default_weight: 1,
        }
    }
}

/// The multi-tenant graph query service. Cheap to share (`Arc`);
/// [`Service::shutdown`] drains and joins the executors.
pub struct Service {
    ctx: Context,
    graphs: Registry,
    sched: Scheduler,
    stats: ServiceStats,
    cfg: ServiceConfig,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Start the service: spawns `cfg.workers` executor threads.
    pub fn start(cfg: ServiceConfig) -> Arc<Service> {
        let svc = Arc::new(Service {
            ctx: Context::blocking(),
            graphs: Registry::new(),
            sched: Scheduler::new(cfg.queue_cap),
            stats: ServiceStats::default(),
            cfg,
            executors: Mutex::new(Vec::new()),
        });
        let mut handles = svc.executors.lock().unwrap_or_else(|e| e.into_inner());
        for i in 0..cfg.workers.max(1) {
            let svc = svc.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("grb-server-exec-{i}"))
                    .spawn(move || {
                        while let Some(job) = svc.sched.next_job() {
                            engine::run_job(&svc.ctx, &svc.graphs, &svc.stats, job);
                        }
                    })
                    .expect("spawn executor"),
            );
        }
        drop(handles);
        svc
    }

    /// Register (or fetch) a tenant with an explicit weight. The first
    /// registration fixes the weight.
    pub fn register_tenant(&self, name: &str, weight: u32) -> Arc<Tenant> {
        self.sched.register(name, weight)
    }

    /// Submit one request on behalf of `tenant` and block for the
    /// reply. Admission control may answer `Overloaded` immediately.
    pub fn submit(&self, tenant: &str, request: Request) -> Reply {
        // HELLO first: it carries the weight, and registration fixes
        // the weight at first sight — don't pre-register at default
        if let Request::Hello {
            tenant: name,
            weight,
        } = &request
        {
            let t = self.register_tenant(name, *weight);
            t.counters.submitted.fetch_add(1, Ordering::Relaxed);
            t.counters.completed.fetch_add(1, Ordering::Relaxed);
            return Reply::Ok;
        }
        let t = self.sched.register(tenant, self.cfg.default_weight);
        t.counters.submitted.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Stats => Reply::Stats(self.stats_report()),
            Request::CreateGraph {
                graph,
                nodes,
                tiles,
            } => match self.graphs.create(&graph, nodes, tiles) {
                Ok(()) => {
                    t.counters.completed.fetch_add(1, Ordering::Relaxed);
                    Reply::Ok
                }
                Err(msg) => {
                    t.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Reply::Err(msg)
                }
            },
            // data plane: admission → fair queue → executor
            other => match self.sched.submit(&t, other) {
                Admit::Queued(slot) => {
                    self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                    slot.wait()
                }
                Admit::Shed => Reply::Overloaded,
                Admit::Closed => Reply::Err("service is shutting down".into()),
            },
        }
    }

    /// Stop the executors from starting new jobs (one already
    /// running finishes) until [`Service::resume`]. Admission control
    /// keeps answering, so queues fill and shed exactly as behind a
    /// saturated executor — a load test's "busy executor", by
    /// construction. [`Service::shutdown`] resumes.
    pub fn pause(&self) {
        self.sched.set_held(true);
    }

    /// Undo [`Service::pause`].
    pub fn resume(&self) {
        self.sched.set_held(false);
    }

    /// The named-graph registry (bulk loading in benches/tests).
    pub fn graphs(&self) -> &Registry {
        &self.graphs
    }

    /// Service-wide counters (tests/benches).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The engine context queries run on.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Render the `STATS` report: one `global` line, one `snapshot`
    /// observability line, one `tenant` line per registered tenant
    /// (latencies in microseconds).
    pub fn stats_report(&self) -> String {
        let pool = pool_status();
        let mut out = String::new();
        let _ = write!(
            out,
            "global graphs={} admitted={} bfs_requests={} bfs_batches={} pool_width={} pool_queued={}",
            self.graphs.len(),
            self.stats.admitted.load(Ordering::Relaxed),
            self.stats.bfs_requests.load(Ordering::Relaxed),
            self.stats.bfs_batches.load(Ordering::Relaxed),
            pool.width,
            pool.queued,
        );
        // MVCC/compaction observability: process-wide counters from the
        // engine, plus the sealed-run backlog summed over our graphs.
        let snap = snapshot_stats();
        let sealed_runs: usize = self
            .graphs
            .entries()
            .iter()
            .map(|e| e.matrix.delta_stats().run_count)
            .sum();
        let _ = write!(
            out,
            "\nsnapshot active={} read_epoch={} sealed_runs={} compactions={} compacted_bytes={} bg_flushes={}",
            snap.snapshots_active,
            snap.last_read_epoch,
            sealed_runs,
            snap.compactions,
            snap.compacted_bytes,
            snap.background_flushes,
        );
        // Per-graph storage introspection: the configured tile grid
        // (the `GxB_get(matrix, TileShape)` view — policy, not the live
        // layout, so STATS never forces a pending drain) plus the delta
        // backlog.
        let mut graphs = self.graphs.entries();
        graphs.sort_by(|a, b| a.name.cmp(&b.name));
        for g in graphs {
            let policy = match g.matrix.tile_shape() {
                None => "auto".to_string(),
                Some((rows, cols)) => format!("tiled:{rows}x{cols}"),
            };
            let _ = write!(
                out,
                "\ngraph {} nodes={} policy={} sealed_runs={}",
                g.name,
                g.nodes,
                policy,
                g.matrix.delta_stats().run_count,
            );
        }
        for t in self.sched.tenants() {
            let (submitted, completed, shed, errors) = t.counters.snapshot();
            // Latencies are recorded in nanoseconds; report milliseconds
            // with one decimal. The old integer division truncated every
            // sub-unit quantile to 0, which read as "infinitely fast"
            // for exactly the fast requests worth bragging about.
            let ms = |ns: u64| ns as f64 / 1e6;
            let _ = write!(
                out,
                "\ntenant {} weight={} submitted={} completed={} shed={} errors={} p50_ms={:.1} p99_ms={:.1} p999_ms={:.1} max_ms={:.1}",
                t.name,
                t.weight,
                submitted,
                completed,
                shed,
                errors,
                ms(t.latency.quantile(0.5)),
                ms(t.latency.quantile(0.99)),
                ms(t.latency.quantile(0.999)),
                ms(t.latency.max()),
            );
        }
        out
    }

    /// All registered tenants (test/bench introspection).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.sched.tenants()
    }

    /// Drain queued work, stop the executors, and join them. Requests
    /// submitted after this returns an `ERR` reply.
    pub fn shutdown(&self) {
        self.sched.shutdown();
        let mut handles = self.executors.lock().unwrap_or_else(|e| e.into_inner());
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_single_tenant() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        assert_eq!(
            svc.submit(
                "t",
                Request::CreateGraph {
                    graph: "g".into(),
                    nodes: 5,
                    tiles: Some((2, 2))
                }
            ),
            Reply::Ok
        );
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            assert_eq!(
                svc.submit(
                    "t",
                    Request::AddEdge {
                        graph: "g".into(),
                        u,
                        v
                    }
                ),
                Reply::Ok
            );
        }
        assert_eq!(
            svc.submit(
                "t",
                Request::Bfs {
                    graph: "g".into(),
                    src: 0
                }
            ),
            Reply::Levels(vec![0, 1, 2, 3, 4])
        );
        assert_eq!(
            svc.submit(
                "t",
                Request::Degree {
                    graph: "g".into(),
                    v: 1
                }
            ),
            Reply::Count(1)
        );
        assert_eq!(
            svc.submit(
                "t",
                Request::HasEdge {
                    graph: "g".into(),
                    u: 0,
                    v: 1
                }
            ),
            Reply::Bool(true)
        );
        let Reply::Stats(report) = svc.submit("t", Request::Stats) else {
            panic!("expected stats")
        };
        assert!(report.contains("tenant t "), "{report}");
        // The snapshot observability line is always present, and the
        // BFS above read through at least one MVCC snapshot.
        assert!(report.contains("\nsnapshot active="), "{report}");
        assert!(report.contains("sealed_runs="), "{report}");
        assert!(report.contains("compactions="), "{report}");
        svc.shutdown();
        assert!(matches!(
            svc.submit(
                "t",
                Request::Bfs {
                    graph: "g".into(),
                    src: 0
                }
            ),
            Reply::Err(_)
        ));
    }

    #[test]
    fn hello_fixes_weight_and_stats_lists_tenants() {
        let svc = Service::start(ServiceConfig::default());
        assert_eq!(
            svc.submit(
                "vip",
                Request::Hello {
                    tenant: "vip".into(),
                    weight: 8
                }
            ),
            Reply::Ok
        );
        let vip = svc.register_tenant("vip", 1); // later weight ignored
        assert_eq!(vip.weight, 8);
        svc.shutdown();
    }

    #[test]
    fn unknown_graph_is_an_err_not_a_hang() {
        let svc = Service::start(ServiceConfig::default());
        assert!(matches!(
            svc.submit(
                "t",
                Request::Bfs {
                    graph: "nope".into(),
                    src: 0
                }
            ),
            Reply::Err(_)
        ));
        svc.shutdown();
    }
}
