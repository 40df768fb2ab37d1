//! `analytics`: whole-graph Table II breadth on a **nonblocking** context
//! (default scheduling policy, fusion on). One operation is PageRank +
//! connected components + triangle count, each on its own graphs, sized so
//! each is 20-50 % of the pass on the seed box.
//!
//! Components and triangles each run on several smaller graphs within every
//! operation rather than on one larger graph: label propagation takes a
//! whole number of rounds and the wedge count is set by a few hubs, so on a
//! single graph both costs jump by 20-40 % from one seed to the next.

use graphblas_algorithms::{connected_components, pagerank, triangle_count};
use graphblas_core::prelude::*;
use graphblas_gen::EdgeList;
use graphblas_reference::{self as refr, AdjGraph};

use super::{close, time_ms, timed_ops, Cfg, Phase, Workload, WARMUP_OPS};
use crate::inputs::{fingerprint, rmat_graph, Fingerprint};
use crate::trace::Tracer;

pub const DAMPING: f64 = 0.85;
pub const TOL: f64 = 1e-8;
pub const MAX_ITERS: usize = 100;

const CC_GRAPHS: u64 = 2;
const TC_GRAPHS: u64 = 3;

pub struct Graphs {
    pub pr: EdgeList,
    /// Symmetrized.
    pub cc: Vec<EdgeList>,
    /// Symmetrized.
    pub tc: Vec<EdgeList>,
}

pub fn graphs(cfg: &Cfg) -> Graphs {
    let sym = |scale: u32, salt: u64| rmat_graph(scale, cfg.seed, salt).symmetrize();
    Graphs {
        pr: rmat_graph(cfg.scale(14, 9), cfg.seed, 3),
        cc: (0..CC_GRAPHS)
            .map(|k| sym(cfg.scale(15, 10), 30 + k))
            .collect(),
        tc: (0..TC_GRAPHS)
            .map(|k| sym(cfg.scale(11, 8), 40 + k))
            .collect(),
    }
}

pub struct Matrices {
    pub pr: Matrix<bool>,
    pub cc: Vec<Matrix<bool>>,
    pub tc: Vec<Matrix<bool>>,
}

pub fn matrices(g: &Graphs) -> Matrices {
    let build = |g: &EdgeList| Matrix::from_tuples(g.n, g.n, &g.bool_tuples()).expect("build");
    Matrices {
        pr: build(&g.pr),
        cc: g.cc.iter().map(build).collect(),
        tc: g.tc.iter().map(build).collect(),
    }
}

pub struct Answers {
    pub ranks: Vec<f64>,
    pub iters: usize,
    /// Per components graph.
    pub labels: Vec<Vec<usize>>,
    /// Per triangles graph.
    pub triangles: Vec<u64>,
}

/// One pass on `ctx`, with a span around each algorithm and the final drain.
pub fn pass(ctx: &Context, m: &Matrices, tr: &Tracer) -> Result<Answers> {
    let (ranks, iters) = tr.scope("algorithms", "pagerank", || {
        pagerank(ctx, &m.pr, DAMPING, TOL, MAX_ITERS)
    })?;
    let labels = tr.scope("algorithms", "connected_components", || {
        m.cc.iter()
            .map(|a| connected_components(ctx, a))
            .collect::<Result<_>>()
    })?;
    let triangles = tr.scope("algorithms", "triangle_count", || {
        m.tc.iter()
            .map(|a| triangle_count(ctx, a))
            .collect::<Result<_>>()
    })?;
    tr.scope("core.exec", "wait", || ctx.wait())?;
    Ok(Answers {
        ranks,
        iters,
        labels,
        triangles,
    })
}

pub fn reference(g: &Graphs) -> Answers {
    let adj = |g: &EdgeList| AdjGraph::from_edges(g.n, &g.edges);
    let (ranks, iters) = refr::pagerank::pagerank(&adj(&g.pr), DAMPING, TOL, MAX_ITERS);
    Answers {
        ranks,
        iters,
        labels: g
            .cc
            .iter()
            .map(|g| refr::components::connected_components(&adj(g)))
            .collect(),
        triangles: g
            .tc
            .iter()
            .map(|g| refr::triangles::triangle_count(&adj(g)))
            .collect(),
    }
}

/// Labels, triangle count and iteration count exact; ranks 1e-9 relative.
pub fn matches(got: &Answers, want: &Answers) -> bool {
    got.labels == want.labels
        && got.triangles == want.triangles
        && got.iters == want.iters
        && got.ranks.len() == want.ranks.len()
        && got
            .ranks
            .iter()
            .zip(&want.ranks)
            .all(|(g, w)| close(*g, *w, 1e-9, 0.0))
}

pub struct Analytics {
    g: Graphs,
    m: Matrices,
    ctx: Context,
    want: Option<Answers>,
}

impl Analytics {
    pub fn setup(cfg: &Cfg) -> Self {
        let g = graphs(cfg);
        let m = matrices(&g);
        let ctx = Context::nonblocking();
        for _ in 0..WARMUP_OPS {
            pass(&ctx, &m, &Tracer::off()).expect("warm-up");
        }
        Analytics {
            g,
            m,
            ctx,
            want: None,
        }
    }
}

impl Workload for Analytics {
    fn graphs(&self) -> Vec<Fingerprint> {
        let numbered = |kind: &str, gs: &[EdgeList]| -> Vec<Fingerprint> {
            gs.iter()
                .enumerate()
                .map(|(k, g)| fingerprint(format!("analytics.{kind}{k}"), g))
                .collect()
        };
        let mut out = vec![fingerprint("analytics.pr", &self.g.pr)];
        out.extend(numbered("cc", &self.g.cc));
        out.extend(numbered("tc", &self.g.tc));
        out
    }

    fn prepare_checks(&mut self) {
        self.want = Some(reference(&self.g));
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let want = self.want.as_ref().expect("prepare_checks ran");
        timed_ops(seconds, traced, |_, tr| {
            let (ms, got) = time_ms(|| tr.scope("harness", "op", || pass(&self.ctx, &self.m, tr)));
            (ms, got.is_ok_and(|g| matches(&g, want)))
        })
    }
}
