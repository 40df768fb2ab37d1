//! `traverse`: BFS levels (bool, `lor.land`) plus Bellman-Ford SSSP (f64,
//! `min.plus`) from one seeded source per operation, on the one graph whose
//! working set is well past L2. Blocking context.

use graphblas_algorithms::{bfs_levels, sssp_bellman_ford};
use graphblas_core::prelude::*;
use graphblas_gen::EdgeList;
use graphblas_reference::{paths::dijkstra, traversal, AdjGraph, WeightedGraph};

use super::{close_opt, time_ms, timed_ops, Cfg, Phase, Workload, WARMUP_OPS};
use crate::inputs::{fingerprint, pick_sources, rmat_graph, Fingerprint, Rng};

/// Distinct sources the timed loop cycles through.
const SOURCES: usize = 32;

pub fn graph(cfg: &Cfg) -> EdgeList {
    rmat_graph(cfg.scale(16, 10), cfg.seed, 2)
}

pub fn weights(cfg: &Cfg, g: &EdgeList) -> Vec<(usize, usize, f64)> {
    g.weighted_tuples(1.0, 10.0, Rng::new(cfg.seed, 102).next())
}

pub fn sources(cfg: &Cfg, g: &EdgeList) -> Vec<Index> {
    pick_sources(g, SOURCES, &mut Rng::new(cfg.seed, 103))
}

pub struct Traverse {
    g: EdgeList,
    wt: Vec<(usize, usize, f64)>,
    a: Matrix<bool>,
    w: Matrix<f64>,
    ctx: Context,
    sources: Vec<Index>,
    want_levels: Vec<Vec<Option<usize>>>,
    want_dist: Vec<Vec<Option<f64>>>,
}

impl Traverse {
    pub fn setup(cfg: &Cfg) -> Self {
        let g = graph(cfg);
        let wt = weights(cfg, &g);
        let a = Matrix::from_tuples(g.n, g.n, &g.bool_tuples()).expect("build adjacency");
        let w = Matrix::from_tuples(g.n, g.n, &wt).expect("build weights");
        let ctx = Context::blocking();
        let sources = sources(cfg, &g);
        for &s in sources.iter().cycle().take(WARMUP_OPS as usize) {
            bfs_levels(&ctx, &a, s).expect("warm-up");
            sssp_bellman_ford(&ctx, &w, s).expect("warm-up");
        }
        Traverse {
            g,
            wt,
            a,
            w,
            ctx,
            sources,
            want_levels: Vec::new(),
            want_dist: Vec::new(),
        }
    }
}

impl Workload for Traverse {
    fn graphs(&self) -> Vec<Fingerprint> {
        vec![fingerprint("traverse.g", &self.g)]
    }

    fn prepare_checks(&mut self) {
        let adj = AdjGraph::from_edges(self.g.n, &self.g.edges);
        let wg = WeightedGraph::from_edges(self.g.n, &self.wt);
        self.want_levels = self
            .sources
            .iter()
            .map(|&s| traversal::bfs_levels(&adj, s))
            .collect();
        self.want_dist = self.sources.iter().map(|&s| dijkstra(&wg, s)).collect();
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        timed_ops(seconds, traced, |i, tr| {
            let k = i as usize % self.sources.len();
            let s = self.sources[k];
            let (ms, (levels, dist)) = time_ms(|| {
                tr.scope("harness", "op", || {
                    (
                        tr.scope("algorithms", "bfs_levels", || {
                            bfs_levels(&self.ctx, &self.a, s)
                        }),
                        tr.scope("algorithms", "sssp_bellman_ford", || {
                            sssp_bellman_ford(&self.ctx, &self.w, s)
                        }),
                    )
                })
            });
            let ok = levels.is_ok_and(|l| l == self.want_levels[k])
                && dist.is_ok_and(|d| close_opt(&d, &self.want_dist[k], 1e-9, 0.0));
            (ms, ok)
        })
    }
}
