//! `server_mix`: a **closed loop** over real TCP. `clients = min(nproc, 4)`
//! connections each send their next request only after the previous reply,
//! against four RMAT graphs served by `ServiceConfig { workers: 2, .. }`.
//! Mix: 40 % BFS, 10 % HOP, 10 % DEG, 10 % HAS, 20 % EDGE+, 10 % EDGE-.
//!
//! Closed loop because tenants call synchronously, and because with the
//! generator and the server sharing the same few cores an open-loop
//! generator's own lateness would dominate what is measured.
//!
//! Client `id` writes only edges whose source is `id` modulo the client
//! count, so the final state of every graph is the same whatever the
//! interleaving, and can be checked exactly through the wire afterwards.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphblas_gen::EdgeList;
use graphblas_reference::{traversal, AdjGraph};
use server::{Client, Reply, Request, Server, Service, ServiceConfig};

use super::{wait_measuring_rss, Cfg, Phase, Workload};
use crate::inputs::{fingerprint, rmat_graph, Fingerprint, Rng};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

const GRAPHS: usize = 4;
/// Requests each client sends to each graph before timing starts.
const WARMUP_REQUESTS_PER_GRAPH: usize = 10;

pub fn graphs(cfg: &Cfg) -> Vec<EdgeList> {
    (0..GRAPHS as u64)
        .map(|k| rmat_graph(cfg.scale(12, 9), cfg.seed, 11 + k))
        .collect()
}

fn graph_name(k: usize) -> String {
    format!("g{k}")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Bfs,
    Point,
    Write,
}

/// One connection's state: its request stream and the edges it has written.
struct ClientState {
    id: usize,
    conn: Client,
    rng: Rng,
    /// `(graph, u, v, added)` in the order sent; only acknowledged writes.
    writes: Vec<(usize, usize, usize, bool)>,
}

/// One client's share of a timed pass.
struct ClientRun {
    /// BFS requests as `(instant of the reply, latency in ms)`.
    bfs: Vec<(f64, f64)>,
    point_us: Vec<f64>,
    /// The instant of every good reply, whatever its class.
    completed: Vec<f64>,
    attempted: u64,
    failed: u64,
    overloaded: u64,
    tracer: Tracer,
}

/// A service, its TCP front end, the loaded graphs and the connected clients:
/// what `server_mix` drives and what the server-layer probes reuse.
pub struct Rig {
    pub service: Arc<Service>,
    pub server: Server,
    pub graphs: Vec<EdgeList>,
    /// Per graph, the vertices with an out-edge (BFS sources) and, per
    /// client, the initial edges that client may remove.
    live: Vec<Vec<usize>>,
    own_edges: Vec<Vec<Vec<(usize, usize)>>>,
    /// Fixed at start: the client list itself is lent out to the client
    /// threads during a pass.
    nclients: usize,
    clients: Vec<ClientState>,
}

impl Rig {
    pub fn start(cfg: &Cfg) -> Rig {
        let service = Service::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let server = Server::bind("127.0.0.1:0", service.clone()).expect("bind loopback");
        let graphs = graphs(cfg);
        for (k, g) in graphs.iter().enumerate() {
            let name = graph_name(k);
            service
                .graphs()
                .create(&name, g.n, None)
                .expect("create graph");
            let entry = service.graphs().get(&name).expect("just created");
            for &(u, v) in &g.edges {
                entry.matrix.set(u, v, true).expect("bulk load");
            }
            entry.matrix.nvals().expect("settle bulk load");
        }
        let nclients = cfg.threads;
        let live = graphs
            .iter()
            .map(|g| {
                let deg = g.out_degrees();
                (0..g.n).filter(|&v| deg[v] > 0).collect()
            })
            .collect();
        let own_edges = graphs
            .iter()
            .map(|g| {
                (0..nclients)
                    .map(|id| {
                        g.edges
                            .iter()
                            .copied()
                            .filter(|e| e.0 % nclients == id)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let clients = (0..nclients)
            .map(|id| ClientState {
                id,
                conn: Client::connect(server.addr(), &format!("tenant{id}"), 1).expect("connect"),
                rng: Rng::new(cfg.seed, 200 + id as u64),
                writes: Vec::new(),
            })
            .collect();
        Rig {
            service,
            server,
            graphs,
            live,
            own_edges,
            nclients,
            clients,
        }
    }

    /// The next request of a client's stream and its latency class.
    fn next_request(&self, c: &mut ClientState) -> (Request, Class, usize) {
        let nclients = self.nclients;
        let gi = c.rng.below(GRAPHS);
        let g = &self.graphs[gi];
        let graph = graph_name(gi);
        let any = |rng: &mut Rng| rng.below(g.n);
        let req = match c.rng.below(10) {
            0..=3 => {
                let src = self.live[gi][c.rng.below(self.live[gi].len())];
                return (Request::Bfs { graph, src }, Class::Bfs, gi);
            }
            4 => Request::OneHop {
                graph,
                v: any(&mut c.rng),
            },
            5 => Request::Degree {
                graph,
                v: any(&mut c.rng),
            },
            6 => Request::HasEdge {
                graph,
                u: any(&mut c.rng),
                v: any(&mut c.rng),
            },
            7..=8 => {
                // a source in this client's partition
                let u = c.id + nclients * c.rng.below(g.n / nclients);
                let v = any(&mut c.rng);
                return (Request::AddEdge { graph, u, v }, Class::Write, gi);
            }
            _ => {
                let own = &self.own_edges[gi][c.id];
                let (u, v) = own[c.rng.below(own.len())];
                return (Request::RemoveEdge { graph, u, v }, Class::Write, gi);
            }
        };
        (req, Class::Point, gi)
    }

    /// Send one request and check the reply's shape against the request.
    /// Returns `(elapsed, ok, overloaded)`.
    fn exchange(
        &self,
        c: &mut ClientState,
        req: &Request,
        gi: usize,
        tr: &Tracer,
        span: &'static str,
    ) -> (Duration, bool, bool) {
        let n = self.graphs[gi].n;
        let t0 = Instant::now();
        let reply = tr.scope("server", span, || c.conn.call(req));
        let dt = t0.elapsed();
        let ok = match (req, &reply) {
            (Request::Bfs { src, .. }, Ok(Reply::Levels(l))) => l.len() == n && l[*src] == 0,
            (Request::OneHop { .. }, Ok(Reply::Ids(ids))) => {
                ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&v| v < n)
            }
            (Request::Degree { .. }, Ok(Reply::Count(d))) => (*d as usize) < n,
            (Request::HasEdge { .. }, Ok(Reply::Bool(_))) => true,
            (Request::AddEdge { u, v, .. }, Ok(Reply::Ok)) => {
                c.writes.push((gi, *u, *v, true));
                true
            }
            (Request::RemoveEdge { u, v, .. }, Ok(Reply::Ok)) => {
                c.writes.push((gi, *u, *v, false));
                true
            }
            _ => false,
        };
        (dt, ok, matches!(reply, Ok(Reply::Overloaded)))
    }

    fn client_loop(
        &self,
        c: &mut ClientState,
        stop: &AtomicBool,
        start: Instant,
        tracer: Tracer,
    ) -> ClientRun {
        let mut run = ClientRun {
            bfs: Vec::new(),
            point_us: Vec::new(),
            completed: Vec::new(),
            attempted: 0,
            failed: 0,
            overloaded: 0,
            tracer,
        };
        while !stop.load(Ordering::Relaxed) {
            let (req, class, gi) = self.next_request(c);
            run.tracer.set_op(run.attempted);
            let span = match class {
                Class::Bfs => "call_bfs",
                Class::Point => "call_point",
                Class::Write => "call_write",
            };
            let (dt, ok, overloaded) = self.exchange(c, &req, gi, &run.tracer, span);
            run.attempted += 1;
            run.failed += u64::from(!ok);
            run.overloaded += u64::from(overloaded);
            let now = start.elapsed().as_secs_f64();
            if ok {
                run.completed.push(now);
            }
            match class {
                Class::Bfs => run.bfs.push((now, dt.as_secs_f64() * 1e3)),
                Class::Point | Class::Write => run.point_us.push(dt.as_secs_f64() * 1e6),
            }
        }
        run
    }

    /// Untimed requests on every connection, so the worker pool, the
    /// executors and each graph's memoized views exist before timing. The
    /// composition is fixed (only the targets are seeded), so `setup_s` does
    /// not depend on how many BFS a seed happens to draw.
    pub fn warm_up(&mut self) {
        let mut clients = std::mem::take(&mut self.clients);
        for c in &mut clients {
            for gi in 0..GRAPHS {
                let graph = graph_name(gi);
                let n = self.graphs[gi].n;
                for k in 0..WARMUP_REQUESTS_PER_GRAPH {
                    let v = c.rng.below(n);
                    let req = match k % 5 {
                        0 | 1 => Request::Bfs {
                            graph: graph.clone(),
                            src: self.live[gi][c.rng.below(self.live[gi].len())],
                        },
                        2 => Request::OneHop {
                            graph: graph.clone(),
                            v,
                        },
                        3 => Request::Degree {
                            graph: graph.clone(),
                            v,
                        },
                        _ => Request::HasEdge {
                            graph: graph.clone(),
                            u: v,
                            v: c.rng.below(n),
                        },
                    };
                    self.exchange(c, &req, gi, &Tracer::off(), "warm_up");
                }
            }
        }
        self.clients = clients;
    }

    /// Run every client's closed loop for `seconds` on its own thread.
    pub fn closed_loop(&mut self, seconds: f64, traced: bool) -> Phase {
        let start = Instant::now();
        let stop = AtomicBool::new(false);
        let mut clients = std::mem::take(&mut self.clients);
        let stats = self.service.stats();
        let count = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let (req0, batch0) = (count(&stats.bfs_requests), count(&stats.bfs_batches));
        let (runs, peak_rss_mb, span_s): (Vec<ClientRun>, f64, f64) = std::thread::scope(|s| {
            let (rig, stop) = (&*self, &stop);
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let tracer = Tracer::new(traced, c.id as u64 + 1, start);
                    s.spawn(move || rig.client_loop(c, stop, start, tracer))
                })
                .collect();
            let peak_rss_mb = wait_measuring_rss(seconds);
            stop.store(true, Ordering::Relaxed);
            let span_s = start.elapsed().as_secs_f64();
            let runs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            (runs, peak_rss_mb, span_s)
        });
        self.clients = clients;

        let mut phase = Phase {
            peak_rss_mb,
            span_s,
            ..Phase::default()
        };
        let mut point_us = Vec::new();
        let mut overloaded = 0;
        for run in runs {
            phase.samples.extend(run.bfs);
            phase
                .work
                .extend(run.completed.into_iter().map(|t| (t, 1.0)));
            point_us.extend(run.point_us);
            phase.attempted += run.attempted;
            phase.failed += run.failed;
            overloaded += run.overloaded;
            phase.spans.extend(run.tracer.into_spans());
        }
        let point_us = sorted(point_us);
        let launches = (count(&stats.bfs_batches) - batch0).max(1);
        phase.extra = vec![
            ("point_us_p50", percentile(&point_us, 50.0), "us"),
            ("point_us_p99", percentile(&point_us, 99.0), "us"),
            ("point_samples", point_us.len() as f64, "count"),
            (
                "coalesce_req_per_launch",
                (count(&stats.bfs_requests) - req0) as f64 / launches as f64,
                "ratio",
            ),
            (
                "shed_ratio",
                overloaded as f64 / phase.attempted.max(1) as f64,
                "ratio",
            ),
        ];
        phase
    }

    /// The graphs as they must be now: the initial edges with every client's
    /// acknowledged writes replayed (partitions are disjoint, so the order
    /// between clients is immaterial).
    fn shadow_graphs(&self) -> Vec<BTreeSet<(usize, usize)>> {
        let mut shadow: Vec<BTreeSet<(usize, usize)>> = self
            .graphs
            .iter()
            .map(|g| g.edges.iter().copied().collect())
            .collect();
        for c in &self.clients {
            for &(gi, u, v, added) in &c.writes {
                if added {
                    shadow[gi].insert((u, v));
                } else {
                    shadow[gi].remove(&(u, v));
                }
            }
        }
        shadow
    }

    /// Exact final-state check through the wire: 32 BFS plus point reads
    /// against the shadow graphs. Returns `(attempted, failed)`.
    pub fn final_state_check(&mut self) -> (u64, u64) {
        let shadow = self.shadow_graphs();
        let mut rng = Rng::new(self.clients[0].rng.next(), 300);
        let conn = &mut self.clients[0].conn;
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut expect = |req: Request, want: Reply| {
            attempted += 1;
            failed += u64::from(!conn.call(&req).is_ok_and(|got| got == want));
        };
        for (gi, edges) in shadow.iter().enumerate() {
            let n = self.graphs[gi].n;
            let graph = graph_name(gi);
            let flat: Vec<(usize, usize)> = edges.iter().copied().collect();
            let adj = AdjGraph::from_edges(n, &flat);
            for _ in 0..32 / GRAPHS {
                let src = self.live[gi][rng.below(self.live[gi].len())];
                let levels = traversal::bfs_levels(&adj, src)
                    .iter()
                    .map(|l| l.map_or(-1, |d| d as i64))
                    .collect();
                expect(
                    Request::Bfs {
                        graph: graph.clone(),
                        src,
                    },
                    Reply::Levels(levels),
                );
            }
            for k in 0..48 {
                let (u, v) = if k % 2 == 0 {
                    flat[rng.below(flat.len())]
                } else {
                    (rng.below(n), rng.below(n))
                };
                expect(
                    Request::HasEdge {
                        graph: graph.clone(),
                        u,
                        v,
                    },
                    Reply::Bool(edges.contains(&(u, v))),
                );
                expect(
                    Request::Degree {
                        graph: graph.clone(),
                        v: u,
                    },
                    Reply::Count(adj.adj[u].len() as u64),
                );
                expect(
                    Request::OneHop {
                        graph: graph.clone(),
                        v: u,
                    },
                    Reply::Ids(adj.adj[u].clone()),
                );
            }
        }
        (attempted, failed)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // closing the connections ends the server's per-connection threads
        self.clients.clear();
        self.server.shutdown();
        self.service.shutdown();
    }
}

pub struct ServerMix {
    rig: Rig,
}

impl ServerMix {
    pub fn setup(cfg: &Cfg) -> Self {
        let mut rig = Rig::start(cfg);
        rig.warm_up();
        ServerMix { rig }
    }
}

impl Workload for ServerMix {
    fn graphs(&self) -> Vec<Fingerprint> {
        self.rig
            .graphs
            .iter()
            .enumerate()
            .map(|(k, g)| fingerprint(format!("server_mix.g{k}"), g))
            .collect()
    }

    fn prepare_checks(&mut self) {}

    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        self.rig.closed_loop(seconds, traced)
    }

    fn final_checks(&mut self) -> (u64, u64) {
        self.rig.final_state_check()
    }
}
