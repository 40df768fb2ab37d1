//! `bc_batch`: the paper's own workload. Fig. 3 `bc_update` on directed RMAT
//! `i32` adjacencies, one operation per batch of 32 seeded sources, on a
//! blocking context.
//!
//! The operations rotate over four graphs of the same scale rather than one:
//! at this size the cost of a batch depends noticeably on the graph the seed
//! happened to draw, and a run that averages four of them is steadier from
//! seed to seed than a run on one.

use graphblas_algorithms::bc_update;
use graphblas_core::prelude::*;
use graphblas_gen::EdgeList;
use graphblas_reference::{bc::brandes_batch, AdjGraph};

use super::{close, time_ms, timed_ops, Cfg, Phase, Workload};
use crate::inputs::{fingerprint, pick_sources, rmat_graph, Fingerprint, Rng};

pub const BATCH: usize = 32;
const GRAPHS: u64 = 4;
/// Distinct batches per graph; each has a reference answer, so every
/// operation is checked.
const BATCHES: usize = 4;

/// Graph `k` of the rotation.
pub fn graph(cfg: &Cfg, k: u64) -> EdgeList {
    rmat_graph(cfg.scale(12, 8), cfg.seed, 20 + k)
}

pub fn batches(cfg: &Cfg, g: &EdgeList, k: u64) -> Vec<Vec<Index>> {
    let mut rng = Rng::new(cfg.seed, 101 + k);
    (0..BATCHES)
        .map(|_| pick_sources(g, BATCH, &mut rng))
        .collect()
}

/// BC contributions as a dense vector (absent entries are 0).
pub fn dense_f64(delta: &Vector<f32>, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for (i, v) in delta.extract_tuples().expect("bc result") {
        out[i] = f64::from(v);
    }
    out
}

/// f32 path counting against the f64 reference: 1e-3 relative, absolute
/// below 1.
pub fn bc_matches(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| close(*g, *w, 1e-3, 1.0))
}

/// One graph of the rotation with its batches and their reference answers.
struct Case {
    g: EdgeList,
    a: Matrix<i32>,
    batches: Vec<Vec<Index>>,
    want: Vec<Vec<f64>>,
}

pub struct BcBatch {
    cases: Vec<Case>,
    ctx: Context,
}

impl BcBatch {
    pub fn setup(cfg: &Cfg) -> Self {
        let ctx = Context::blocking();
        let cases: Vec<Case> = (0..GRAPHS)
            .map(|k| {
                let g = graph(cfg, k);
                let a = Matrix::from_tuples(g.n, g.n, &g.int_tuples()).expect("build adjacency");
                let batches = batches(cfg, &g, k);
                Case {
                    g,
                    a,
                    batches,
                    want: Vec::new(),
                }
            })
            .collect();
        // one batch on every graph: each adjacency's memoized views and degree
        // caches exist before timing
        for c in &cases {
            bc_update(&ctx, &c.a, &c.batches[0])
                .expect("warm-up")
                .nvals()
                .expect("warm-up");
        }
        BcBatch { cases, ctx }
    }
}

impl Workload for BcBatch {
    fn graphs(&self) -> Vec<Fingerprint> {
        self.cases
            .iter()
            .enumerate()
            .map(|(k, c)| fingerprint(format!("bc_batch.g{k}"), &c.g))
            .collect()
    }

    fn prepare_checks(&mut self) {
        for c in &mut self.cases {
            let adj = AdjGraph::from_edges(c.g.n, &c.g.edges);
            c.want = c.batches.iter().map(|b| brandes_batch(&adj, b)).collect();
        }
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        timed_ops(seconds, traced, |i, tr| {
            let i = i as usize;
            let case = &self.cases[i % self.cases.len()];
            let k = i / self.cases.len() % case.batches.len();
            let (ms, delta) = time_ms(|| {
                tr.scope("harness", "op", || {
                    let delta = tr.scope("algorithms", "bc_update", || {
                        bc_update(&self.ctx, &case.a, &case.batches[k])
                    });
                    if let Ok(d) = &delta {
                        let _ = tr.scope("core.object", "nvals", || d.nvals());
                    }
                    delta
                })
            });
            let ok = delta.is_ok_and(|d| bc_matches(&dense_f64(&d, case.g.n), &case.want[k]));
            (ms, ok)
        })
    }
}
