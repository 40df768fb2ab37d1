//! `ingest_query`: writes beside reads on one `Matrix<bool>`. A writer thread
//! streams seeded 80/20 `set`/`remove` at full speed while a reader thread
//! loops `snapshot()` -> `to_matrix()` -> `bfs_levels` from rotating sources.
//! The flush window is 50 ms (`GRB_FLUSH_WINDOW_MS`, set by `main` before the
//! engine first reads it).
//!
//! Updates target a fixed pool of candidate edges (the seed graph plus a
//! second RMAT graph of the same scale), so the matrix reaches a stationary
//! size instead of densifying for as long as the run lasts: the query cost
//! then does not depend on how many updates the writer managed to push.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use graphblas_algorithms::bfs_levels;
use graphblas_core::prelude::*;
use graphblas_gen::EdgeList;
use graphblas_reference::{traversal, AdjGraph};

use super::{wait_measuring_rss, Cfg, Phase, Workload, WARMUP_OPS};
use crate::inputs::{fingerprint, pick_sources, rmat_graph, Fingerprint, Rng};
use crate::trace::Tracer;

pub const FLUSH_WINDOW_MS: &str = "50";
/// Updates between two looks at the stop flag and the clock.
const BLOCK: u64 = 1024;
/// Every this-many-th query is checked against reference BFS.
const CHECK_EVERY: u64 = 8;

pub fn graph(cfg: &Cfg) -> EdgeList {
    rmat_graph(cfg.scale(14, 10), cfg.seed, 9)
}

/// The candidate edges: the seed graph's, then those of a second graph that
/// the seed graph lacks. The first `g.edges.len()` start present.
pub fn pool(cfg: &Cfg, g: &EdgeList) -> Vec<(usize, usize)> {
    let extra = rmat_graph(cfg.scale(14, 10), cfg.seed, 10);
    let mut pool = g.edges.clone();
    // both lists are sorted (dedup sorts), so membership is a binary search
    pool.extend(
        extra
            .edges
            .into_iter()
            .filter(|e| g.edges.binary_search(e).is_err()),
    );
    pool
}

/// The update stream: which pool edge, and whether to remove (20 %) or set.
fn next_update(rng: &mut Rng, pool_len: usize) -> (usize, bool) {
    let r = rng.next();
    (((r >> 8) % pool_len as u64) as usize, (r & 0xff) < 51)
}

pub struct IngestQuery {
    g: EdgeList,
    pool: Vec<(usize, usize)>,
    m: Matrix<bool>,
    sources: Vec<Index>,
    /// The writer's stream; `shadow[i]` is whether `pool[i]` should be stored
    /// after every update applied so far.
    rng: Rng,
    shadow: Vec<bool>,
}

impl IngestQuery {
    pub fn setup(cfg: &Cfg) -> Self {
        let g = graph(cfg);
        let pool = pool(cfg, &g);
        let m = Matrix::from_tuples(g.n, g.n, &g.bool_tuples()).expect("build seed graph");
        m.nvals().expect("settle");
        let sources = pick_sources(&g, 32, &mut Rng::new(cfg.seed, 105));
        let mut shadow = vec![false; pool.len()];
        shadow[..g.edges.len()].fill(true);
        let mut w = IngestQuery {
            g,
            pool,
            m,
            sources,
            rng: Rng::new(cfg.seed, 106),
            shadow,
        };
        // warm-up: one pool's worth of updates brings the matrix to its
        // stationary size, then the usual three queries
        let warm = w.pool.len() as u64;
        w.write_blocks(warm.div_ceil(BLOCK), &Tracer::off());
        let ctx = Context::blocking();
        for &s in w.sources.iter().take(WARMUP_OPS as usize) {
            bfs_levels(&ctx, &w.m.snapshot().to_matrix(), s).expect("warm-up");
        }
        w
    }

    /// Apply `blocks` blocks of the stream to the live matrix and the shadow.
    fn write_blocks(&mut self, blocks: u64, tr: &Tracer) {
        for _ in 0..blocks {
            tr.scope("core.storage", "set_remove_block", || {
                for _ in 0..BLOCK {
                    let (i, remove) = next_update(&mut self.rng, self.pool.len());
                    let (u, v) = self.pool[i];
                    if remove {
                        self.m.remove(u, v).expect("remove");
                    } else {
                        self.m.set(u, v, true).expect("set");
                    }
                    self.shadow[i] = !remove;
                }
            });
        }
    }
}

/// What the reader thread hands back.
struct Reads {
    /// `(instant the query ended, latency in ms)` on the pass's clock.
    samples: Vec<(f64, f64)>,
    checked: u64,
    failed: u64,
    tracer: Tracer,
}

fn reader(
    m: &Matrix<bool>,
    sources: &[Index],
    stop: &AtomicBool,
    start: Instant,
    tracer: Tracer,
) -> Reads {
    let ctx = Context::blocking();
    let n = m.nrows();
    let mut out = Reads {
        samples: Vec::new(),
        checked: 0,
        failed: 0,
        tracer,
    };
    let mut q = 0u64;
    while !stop.load(Ordering::Relaxed) || out.samples.len() < WARMUP_OPS as usize {
        let src = sources[q as usize % sources.len()];
        out.tracer.set_op(q);
        let t0 = Instant::now();
        let (snap, levels) = out.tracer.scope("harness", "query", || {
            let snap = out
                .tracer
                .scope("core.storage", "snapshot", || m.snapshot());
            let frozen = out
                .tracer
                .scope("core.storage", "to_matrix", || snap.to_matrix());
            let levels = out.tracer.scope("algorithms", "bfs_levels", || {
                bfs_levels(&ctx, &frozen, src)
            });
            (snap, levels)
        });
        out.samples.push((
            start.elapsed().as_secs_f64(),
            t0.elapsed().as_secs_f64() * 1e3,
        ));
        match levels {
            Err(_) => out.failed += 1,
            Ok(levels) if q.is_multiple_of(CHECK_EVERY) => {
                out.checked += 1;
                let ok = snap.extract_tuples().is_ok_and(|t| {
                    let edges: Vec<(usize, usize)> = t.iter().map(|&(u, v, _)| (u, v)).collect();
                    traversal::bfs_levels(&AdjGraph::from_edges(n, &edges), src) == levels
                });
                out.failed += u64::from(!ok);
            }
            Ok(_) => {}
        }
        q += 1;
    }
    out
}

impl Workload for IngestQuery {
    fn graphs(&self) -> Vec<Fingerprint> {
        vec![fingerprint("ingest_query.g", &self.g)]
    }

    fn prepare_checks(&mut self) {}

    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let start = Instant::now();
        let lane = |k| Tracer::new(traced, k, start);
        let stop = AtomicBool::new(false);
        let (m, sources) = (self.m.clone(), self.sources.clone());
        let (writer_tracer, reader_tracer) = (lane(1), lane(2));

        let (reads, (work, writer_tracer), peak_rss_mb, span_s) = std::thread::scope(|s| {
            let stop = &stop;
            let me = &mut *self;
            let reading = s.spawn(move || reader(&m, &sources, stop, start, reader_tracer));
            let writing = s.spawn(move || {
                let mut work = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    me.write_blocks(1, &writer_tracer);
                    work.push((start.elapsed().as_secs_f64(), BLOCK as f64));
                }
                (work, writer_tracer)
            });
            let peak_rss_mb = wait_measuring_rss(seconds);
            stop.store(true, Ordering::Relaxed);
            let span_s = start.elapsed().as_secs_f64();
            (
                reading.join().expect("reader thread"),
                writing.join().expect("writer thread"),
                peak_rss_mb,
                span_s,
            )
        });

        let mut spans = writer_tracer.into_spans();
        spans.extend(reads.tracer.into_spans());
        Phase {
            attempted: reads.samples.len() as u64,
            failed: reads.failed,
            peak_rss_mb,
            extra: vec![
                ("updates_total", work.len() as f64 * BLOCK as f64, "count"),
                ("queries", reads.samples.len() as f64, "count"),
                ("queries_checked", reads.checked as f64, "count"),
            ],
            samples: reads.samples,
            work,
            span_s,
            spans,
        }
    }

    /// The final matrix must equal the writer's shadow set.
    fn final_checks(&mut self) -> (u64, u64) {
        let mut want: Vec<(usize, usize)> = self
            .pool
            .iter()
            .zip(&self.shadow)
            .filter(|(_, &present)| present)
            .map(|(&e, _)| e)
            .collect();
        want.sort_unstable();
        let ok = self.m.extract_tuples().is_ok_and(|t| {
            t.len() == want.len() && t.iter().zip(&want).all(|(&(u, v, _), &w)| (u, v) == w)
        });
        (1, u64::from(!ok))
    }
}
