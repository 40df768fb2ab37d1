//! Layer probes: direct calls into each layer's public functions on the
//! workloads' own seeded inputs, giving the per-layer metrics of a traced run.
//! Every number here is a median of a few repetitions after one untimed call,
//! and none of them has a regression bound: they say where an end-to-end
//! change came from, they do not judge it.

use std::hint::black_box;
use std::time::Instant;

use graphblas_algorithms as alg;
use graphblas_capi as grb;
use graphblas_capi::{GrbMatrix, GrbType, GrbVector, Value};
use graphblas_core::kernel::mxm::{mxm as mxm_kernel, MxmStrategy};
use graphblas_core::mask::{MaskCsr, MaskVec};
use graphblas_core::par;
use graphblas_core::prelude::*;
use graphblas_core::spmspv::{self, Direction};
use graphblas_core::storage::{Csr, MatrixStore, SparseVec};
use graphblas_gen::EdgeList;
use graphblas_reference::{self as refr, AdjGraph, WeightedGraph};
use server::{Client, Reply, Request};

use crate::inputs::Rng;
use crate::stats::{median, percentile};
use crate::trace::{self_times, Tracer};
use crate::workloads::{analytics, bc_batch, capi_mix, server_mix, traverse, Cfg};

pub type Metric = (&'static str, f64, &'static str);

/// Median wall time of `run` in milliseconds over `reps` calls, after one
/// untimed call. `setup` runs before every call, outside the timing.
fn timed_with<S>(reps: usize, mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    run(setup());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let s = setup();
            let t0 = Instant::now();
            run(s);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn timed<R>(reps: usize, mut run: impl FnMut() -> R) -> f64 {
    timed_with(
        reps,
        || (),
        |()| {
            black_box(run());
        },
    )
}

/// Inputs several layers share, generated once per traced run.
struct Shared {
    cfg: Cfg,
    trav: EdgeList,
    trav_a: Matrix<bool>,
    trav_src: Index,
    /// Reference BFS levels from `trav_src`, the deepest level, and the level
    /// whose frontier is closest to n/16 vertices (the push-sort case).
    trav_levels: Vec<Option<usize>>,
    trav_depth: usize,
    trav_mid: usize,
    bc: EdgeList,
    bc_batch: Vec<Index>,
    /// Reference BFS levels from every source of `bc_batch`.
    bc_levels: Vec<Vec<Option<usize>>>,
    /// The level whose frontier block is the largest.
    bc_peak: usize,
}

pub fn run(cfg: &Cfg) -> Vec<Metric> {
    let mut out = Vec::new();

    let gen_ms = timed(3, || traverse::graph(cfg));
    let trav = traverse::graph(cfg);
    out.push(("gen.rmat_ms", gen_ms, "ms"));
    out.push(("gen.edges", trav.edges.len() as f64, "count"));

    let trav_a = Matrix::from_tuples(trav.n, trav.n, &trav.bool_tuples()).expect("build");
    let trav_src = traverse::sources(cfg, &trav)[0];
    let trav_levels =
        refr::traversal::bfs_levels(&AdjGraph::from_edges(trav.n, &trav.edges), trav_src);
    let trav_depth = trav_levels.iter().flatten().max().copied().unwrap_or(0);
    let level_size = |k: usize| trav_levels.iter().filter(|l| **l == Some(k)).count();
    let trav_mid = (0..=trav_depth)
        .min_by_key(|&k| level_size(k).abs_diff(trav.n / 16))
        .unwrap_or(0);
    let bc = bc_batch::graph(cfg, 0);
    let bc_batch = bc_batch::batches(cfg, &bc, 0).swap_remove(0);
    let bc_adj = AdjGraph::from_edges(bc.n, &bc.edges);
    let bc_levels: Vec<_> = bc_batch
        .iter()
        .map(|&s| refr::traversal::bfs_levels(&bc_adj, s))
        .collect();
    let depth = bc_levels.iter().flatten().flatten().max().copied();
    let bc_peak = (0..=depth.unwrap_or(0))
        .max_by_key(|&k| {
            bc_levels
                .iter()
                .flatten()
                .filter(|l| **l == Some(k))
                .count()
        })
        .unwrap_or(0);
    let sh = Shared {
        cfg: *cfg,
        trav,
        trav_a,
        trav_src,
        trav_levels,
        trav_depth,
        trav_mid,
        bc,
        bc_batch,
        bc_levels,
        bc_peak,
    };

    let mut layer = |name: &str, probe: &mut dyn FnMut(&mut Vec<Metric>)| {
        let t0 = Instant::now();
        probe(&mut out);
        println!("# probes {name} took {:.2} s", t0.elapsed().as_secs_f64());
    };
    let mut kernel_mid_us = 0.0;
    layer("core.storage", &mut |out| storage(&sh, out));
    layer("core.kernel", &mut |out| kernel_mid_us = kernel(&sh, out));
    layer("core.op", &mut |out| op(&sh, kernel_mid_us, out));
    layer("core.exec", &mut |out| exec(&sh, out));
    layer("capi", &mut |out| capi(&sh, out));
    layer("algorithms", &mut |out| algorithms(&sh, out));
    layer("server", &mut |out| server(&sh, out));
    out
}

// ----- core.storage -----

fn storage(sh: &Shared, out: &mut Vec<Metric>) {
    let n = sh.trav.n;
    let tuples = sh.trav.bool_tuples();
    out.push((
        "core.storage.build_ms",
        timed(3, || {
            Matrix::from_tuples(n, n, &tuples)
                .expect("build")
                .nvals()
                .expect("nvals")
        }),
        "ms",
    ));

    let pending = if sh.cfg.quick { 10_000 } else { 100_000 };
    let mut rng = Rng::new(sh.cfg.seed, 400);
    let updates: Vec<(usize, usize)> = (0..pending).map(|_| (rng.below(n), rng.below(n))).collect();
    let fresh = || {
        let m = sh.trav_a.dup();
        m.nvals().expect("settle");
        m
    };
    let apply = |m: &Matrix<bool>, upd: &[(usize, usize)]| {
        for &(u, v) in upd {
            m.set(u, v, true).expect("set");
        }
    };

    let (mut set_ns, mut flush_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let m = fresh();
        let t0 = Instant::now();
        apply(&m, &updates);
        set_ns.push(t0.elapsed().as_secs_f64() * 1e9 / pending as f64);
        let t1 = Instant::now();
        m.nvals().expect("flush");
        flush_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("core.storage.set_ns_per_update", median(&set_ns), "ns"));
    out.push(("core.storage.flush_ms", median(&flush_ms), "ms"));

    let m = fresh();
    apply(&m, &updates[..pending / 10]);
    let snap_us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            black_box(m.snapshot());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("core.storage.snapshot_us", median(&snap_us), "us"));

    out.push((
        "core.storage.overlay_read_ms",
        timed_with(
            3,
            || {
                let m = fresh();
                apply(&m, &updates[..pending / 2]);
                m.snapshot()
            },
            |snap| {
                black_box(snap.to_matrix().nvals().expect("overlay read"));
            },
        ),
        "ms",
    ));

    let ctx = Context::blocking();
    let tiled = sh.trav_a.dup();
    tiled.set_tile_shape(4, 4).expect("tile");
    let bfs = |a: &Matrix<bool>| timed(3, || alg::bfs_levels(&ctx, a, sh.trav_src).expect("bfs"));
    let slab_ms = bfs(&sh.trav_a);
    out.push((
        "core.storage.tiled4x4_over_slab_x",
        bfs(&tiled) / slab_ms,
        "x",
    ));
}

// ----- core.kernel -----

fn csr_of<T: Scalar>(n: usize, ncols: usize, mut tuples: Tuples<T>) -> Csr<T> {
    tuples.sort_unstable_by_key(|t| (t.0, t.1));
    Csr::from_sorted_tuples(n, ncols, tuples)
}

type Tuples<T> = Vec<(usize, usize, T)>;

/// The frontier block of `sh.bc_batch` at its peak level as `n x batch`
/// tuples, and the tuples of everything discovered up to that level.
fn bc_block(sh: &Shared) -> (Tuples<i32>, Tuples<i32>) {
    let (mut frontier, mut seen) = (Vec::new(), Vec::new());
    for (s, levels) in sh.bc_levels.iter().enumerate() {
        for (v, l) in levels.iter().enumerate() {
            match l {
                Some(l) if *l == sh.bc_peak => {
                    frontier.push((v, s, 1));
                    seen.push((v, s, 1));
                }
                Some(l) if *l < sh.bc_peak => seen.push((v, s, 1)),
                _ => {}
            }
        }
    }
    (frontier, seen)
}

/// Returns the Auto-direction kernel time on the mid frontier, in
/// microseconds, for `core.op.vxm_over_kernel_x`.
fn kernel(sh: &Shared, out: &mut Vec<Metric>) -> f64 {
    let n = sh.trav.n;
    let store = MatrixStore::csr(csr_of(n, n, sh.trav.bool_tuples()));
    let (depth, mid) = (sh.trav_depth, sh.trav_mid);
    let at_level =
        |k: usize| -> Vec<usize> { (0..n).filter(|&v| sh.trav_levels[v] == Some(k)).collect() };
    // what bfs_levels runs at level k: the frontier through A, under the
    // complement of everything discovered so far
    let step = |k: usize, dir: Direction| -> f64 {
        let idx = at_level(k);
        let frontier = SparseVec::from_sorted_parts(n, idx.clone(), vec![true; idx.len()]);
        let mask = MaskVec::Pattern {
            indices: (0..n)
                .filter(|&v| sh.trav_levels[v].is_some_and(|l| l <= k))
                .collect(),
            complement: true,
        };
        1e3 * timed(3, || {
            spmspv::with_direction(dir, || {
                spmspv::vxm::<bool, bool, bool, _>(&lor_land(), &frontier, &store, false, &mask)
            })
        })
    };
    let peak = (0..=depth).max_by_key(|&k| at_level(k).len()).unwrap_or(0);
    out.push((
        "core.kernel.spmspv_push_us",
        step(1.min(depth), Direction::Push),
        "us",
    ));
    out.push((
        "core.kernel.spmspv_mid_us",
        step(mid, Direction::Push),
        "us",
    ));
    out.push((
        "core.kernel.spmspv_pull_us",
        step(peak, Direction::Pull),
        "us",
    ));
    let (mut auto, mut best) = (0.0, 0.0);
    for k in 0..=depth {
        auto += step(k, Direction::Auto);
        best += [Direction::Push, Direction::Pull, Direction::Dense]
            .into_iter()
            .map(|d| step(k, d))
            .fold(f64::INFINITY, f64::min);
    }
    out.push(("core.kernel.spmspv_auto_over_best_x", auto / best, "x"));

    // A' x (n x 32 frontier block) under the complement of the discovered set
    let bn = sh.bc.n;
    let at = csr_of(
        bn,
        bn,
        sh.bc.edges.iter().map(|&(u, v)| (v, u, 1i32)).collect(),
    );
    let (frontier, seen) = bc_block(sh);
    let f = csr_of(bn, bc_batch::BATCH, frontier);
    let mask = MaskCsr::from_csr(&csr_of(bn, bc_batch::BATCH, seen), true, true);
    let block = || mxm_kernel(&plus_times::<i32>(), &at, &f, &mask, MxmStrategy::Auto);
    let block_ms = timed(5, block);
    let products: usize = at.col_idx().iter().map(|&k| f.row_nvals(k)).sum();
    out.push(("core.kernel.mxm_block_ms", block_ms, "ms"));
    out.push(("core.kernel.mxm_block_products", products as f64, "count"));
    out.push((
        "core.kernel.mxm_block_mproducts_per_s",
        products as f64 / 1e6 / (block_ms / 1e3),
        "M/s",
    ));
    let par = |k: usize| timed(5, || par::with_parallelism(k, block));
    out.push(("core.exec.par2_over_par1_x", par(2) / par(1), "x"));

    let ag = analytics::graphs(&sh.cfg);
    let tc = csr_of(ag.tc[0].n, ag.tc[0].n, ag.tc[0].bool_tuples());
    let tc_mask = MaskCsr::from_csr(&tc, true, false);
    let pair = SemiringDef::new(PlusMonoid::<u64>::new(), Pair::<bool, bool, u64>::new());
    out.push((
        "core.kernel.mxm_masked_ms",
        timed(3, || {
            mxm_kernel(&pair, &tc, &tc, &tc_mask, MxmStrategy::Auto)
        }),
        "ms",
    ));

    let pr = MatrixStore::csr(csr_of(
        ag.pr.n,
        ag.pr.n,
        ag.pr.edges.iter().map(|&(u, v)| (u, v, 1.0f64)).collect(),
    ));
    let dense = SparseVec::full(ag.pr.n, 1.0f64);
    out.push((
        "core.kernel.mxv_dense_ms",
        timed(5, || {
            spmspv::mxv::<f64, f64, f64, _>(&plus_times::<f64>(), &pr, &dense, false, &MaskVec::All)
        }),
        "ms",
    ));

    let (ca, cb) = capi_mix::graphs(&sh.cfg).fig2.swap_remove(0);
    let a_t = csr_of(
        ca.n,
        ca.n,
        ca.edges.iter().map(|&(u, v)| (v, u, 1i32)).collect(),
    );
    let b = csr_of(cb.n, cb.n, cb.int_tuples());
    out.push((
        "core.kernel.mxm_unmasked_ms",
        timed(5, || {
            mxm_kernel(
                &plus_times::<i32>(),
                &a_t,
                &b,
                &MaskCsr::All,
                MxmStrategy::Auto,
            )
        }),
        "ms",
    ));

    step(mid, Direction::Auto)
}

// ----- core.op -----

fn op(sh: &Shared, kernel_mid_us: f64, out: &mut Vec<Metric>) {
    let ctx = Context::blocking();
    let d = Descriptor::default();

    // the same mid-frontier step as the kernel probe, through Context::vxm
    let n = sh.trav.n;
    let mid = sh.trav_mid;
    let tuples_where = |keep: &dyn Fn(usize) -> bool| -> Vec<(usize, bool)> {
        (0..n)
            .filter(|&v| sh.trav_levels[v].is_some_and(keep))
            .map(|v| (v, true))
            .collect()
    };
    let q = Vector::from_tuples(n, &tuples_where(&|l| l == mid)).expect("frontier");
    let seen = Vector::from_tuples(n, &tuples_where(&|l| l <= mid)).expect("mask");
    let push = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();
    let vxm_us = 1e3
        * timed(5, || {
            let w = Vector::<bool>::new(n).expect("out");
            ctx.vxm(&w, &seen, NoAccum, lor_land(), &q, &sh.trav_a, &push)
                .expect("vxm");
            w.nvals().expect("force")
        });
    out.push(("core.op.vxm_over_kernel_x", vxm_us / kernel_mid_us, "x"));

    // Fig. 2 through Context::mxm on the block the kernel probe multiplied:
    // C<!numsp, replace> += A' * frontier
    let bn = sh.bc.n;
    let a = Matrix::from_tuples(bn, bn, &sh.bc.int_tuples()).expect("build");
    let (frontier_t, seen_t) = bc_block(sh);
    let frontier = Matrix::from_tuples(bn, bc_batch::BATCH, &frontier_t).expect("frontier");
    let numsp = Matrix::from_tuples(bn, bc_batch::BATCH, &seen_t).expect("numsp");
    let desc_tsr = Descriptor::default()
        .transpose_first()
        .complement_mask()
        .replace();
    let fig2_ms = timed_with(
        5,
        || Matrix::from_tuples(bn, bc_batch::BATCH, &frontier_t).expect("c"),
        |c| {
            ctx.mxm(
                &c,
                &numsp,
                Accum(Plus::<i32>::new()),
                plus_times::<i32>(),
                &a,
                &frontier,
                &desc_tsr,
            )
            .expect("mxm");
            black_box(c.nvals().expect("force"));
        },
    );
    out.push(("core.op.mxm_fig2_ms", fig2_ms, "ms"));
    let block_ms = out
        .iter()
        .find(|m| m.0 == "core.kernel.mxm_block_ms")
        .map_or(f64::NAN, |m| m.1);
    out.push(("core.op.mxm_fig2_over_kernel_x", fig2_ms / block_ms, "x"));

    // the Table II rows, on the PageRank graph as f64
    let g = analytics::graphs(&sh.cfg).pr;
    let n = g.n;
    let w: Vec<(usize, usize, f64)> = g.edges.iter().map(|&(u, v)| (u, v, 2.0)).collect();
    let wt: Vec<(usize, usize, f64)> = g.edges.iter().map(|&(u, v)| (v, u, 3.0)).collect();
    let a = Matrix::from_tuples(n, n, &w).expect("build");
    let b = Matrix::from_tuples(n, n, &wt).expect("build");
    let new = || Matrix::<f64>::new(n, n).expect("out");
    out.push((
        "core.op.ewise_add_ms",
        timed(3, || {
            let c = new();
            ctx.ewise_add_matrix(&c, NoMask, NoAccum, Plus::new(), &a, &b, &d)
                .expect("ewise_add");
            c.nvals().expect("force")
        }),
        "ms",
    ));
    out.push((
        "core.op.ewise_mult_ms",
        timed(3, || {
            let c = new();
            ctx.ewise_mult_matrix(&c, NoMask, NoAccum, Times::new(), &a, &b, &d)
                .expect("ewise_mult");
            c.nvals().expect("force")
        }),
        "ms",
    ));
    out.push((
        "core.op.apply_ms",
        timed(3, || {
            let c = new();
            ctx.apply_matrix(&c, NoMask, NoAccum, Minv::new(), &a, &d)
                .expect("apply");
            c.nvals().expect("force")
        }),
        "ms",
    ));
    out.push((
        "core.op.reduce_ms",
        timed(3, || {
            let r = Vector::<f64>::new(n).expect("out");
            ctx.reduce_rows(&r, NoMask, NoAccum, PlusMonoid::new(), &a, &d)
                .expect("reduce");
            r.nvals().expect("force")
        }),
        "ms",
    ));
    // a dense n/32 x n/32 corner: about as many entries as the graph has edges
    let corner = IndexSelection::Range(0, (n / 32).max(1));
    out.push((
        "core.op.assign_ms",
        timed(3, || {
            let c = new();
            ctx.assign_scalar_matrix(&c, NoMask, NoAccum, 1.0, corner, corner, &d)
                .expect("assign");
            c.nvals().expect("force")
        }),
        "ms",
    ));
    let half: Vec<Index> = (0..n / 2).collect();
    out.push((
        "core.op.extract_ms",
        timed(3, || {
            let c = Matrix::<f64>::new(n / 2, n / 2).expect("out");
            ctx.extract_matrix(
                &c,
                NoMask,
                NoAccum,
                &a,
                IndexSelection::List(&half),
                IndexSelection::List(&half),
                &d,
            )
            .expect("extract");
            c.nvals().expect("force")
        }),
        "ms",
    ));
    out.push((
        "core.op.transpose_ms",
        // a fresh operand per call defeats the memoized transpose view
        timed_with(
            3,
            || Matrix::from_tuples(n, n, &w).expect("build"),
            |fresh| {
                let c = new();
                ctx.transpose(&c, NoMask, NoAccum, &fresh, &d)
                    .expect("transpose");
                black_box(c.nvals().expect("force"));
            },
        ),
        "ms",
    ));
}

// ----- core.exec -----

fn exec(sh: &Shared, out: &mut Vec<Metric>) {
    // the analytics pass under each mode and policy
    let m = analytics::matrices(&analytics::graphs(&sh.cfg));
    let off = Tracer::off();
    // the first pass warms what every context shares (memoized views, degree
    // caches, the worker pool); after it each configuration is timed cold-free
    analytics::pass(&Context::blocking(), &m, &off).expect("pass");
    let pass = |ctx: Context| {
        let ms: Vec<f64> = (0..2)
            .map(|_| {
                let t0 = Instant::now();
                black_box(analytics::pass(&ctx, &m, &off).expect("pass"));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&ms)
    };
    let blocking = pass(Context::blocking());
    let nb_seq = pass(Context::nonblocking_sequential());
    let nb_par = pass(Context::nonblocking_parallel());
    let fuse_off = pass(Context::with_fuse_policy(
        Mode::Nonblocking,
        SchedPolicy::Parallel,
        FusePolicy::Off,
    ));
    out.push(("core.exec.nb_seq_over_blocking_x", nb_seq / blocking, "x"));
    out.push(("core.exec.nb_par_over_blocking_x", nb_par / blocking, "x"));
    out.push(("core.exec.fuse_off_over_on_x", fuse_off / nb_par, "x"));

    // 64 independent small vxm: enqueue time against wait() time, that is,
    // work waiting against work running
    const OPS: usize = 64;
    let n = sh.bc.n;
    let a = Matrix::from_tuples(n, n, &sh.bc.bool_tuples()).expect("build");
    let q = Vector::from_tuples(n, &[(sh.bc_batch[0], true)]).expect("frontier");
    let ctx = Context::nonblocking();
    let d = Descriptor::default();
    let (mut submit_us, mut drain_ms) = (Vec::new(), Vec::new());
    for rep in 0..6 {
        let outs: Vec<Vector<bool>> = (0..OPS).map(|_| Vector::new(n).expect("out")).collect();
        let t0 = Instant::now();
        for w in &outs {
            ctx.vxm(w, NoMask, NoAccum, lor_land(), &q, &a, &d)
                .expect("enqueue");
        }
        let t1 = Instant::now();
        ctx.wait().expect("drain");
        let t2 = Instant::now();
        if rep > 0 {
            submit_us.push((t1 - t0).as_secs_f64() * 1e6 / OPS as f64);
            drain_ms.push((t2 - t1).as_secs_f64() * 1e3);
        }
    }
    out.push(("core.exec.submit_us_per_op", median(&submit_us), "us"));
    out.push(("core.exec.drain_ms", median(&drain_ms), "ms"));
}

// ----- capi -----

fn capi(sh: &Shared, out: &mut Vec<Metric>) {
    let mut g = capi_mix::graphs(&sh.cfg);
    let (fig2_a, _) = g.fig2.swap_remove(0);
    let weights = capi_mix::mxv_weights(&sh.cfg, &g.mv);
    let udt = capi_mix::wrapped_i64();
    let ctx = Context::blocking();
    let d = Descriptor::default();
    let (n, mn) = (fig2_a.n, g.mv.n);
    let input = capi_mix::mxv_input(mn);

    let metrics = grb::with_session(Mode::Blocking, || -> grb::Result<Vec<Metric>> {
        let mut out = Vec::new();
        let plus = |ty| grb::GrbBinaryOp::plus(ty).expect("plus");
        let matrix = |ty: GrbType, g: &EdgeList, vals: Vec<Value>| {
            capi_mix::build_matrix(ty, g, &vals, &plus(ty))
        };
        let ones_i32 = vec![Value::Int32(1); fig2_a.edges.len()];
        let ones_i64 = vec![Value::Int64(1); fig2_a.edges.len()];
        let w_f64: Vec<Value> = weights.iter().map(|&w| Value::Fp64(w as f64)).collect();
        let w_i64: Vec<Value> = weights.iter().map(|&w| Value::Int64(w)).collect();

        out.push((
            "capi.build_ms",
            timed(3, || matrix(GrbType::Fp64, &g.mv, w_f64.clone())),
            "ms",
        ));

        // A3: the same product through the facade and through the typed core
        let a_dyn = matrix(GrbType::Int32, &fig2_a, ones_i32)?;
        let a_typed = Matrix::from_tuples(n, n, &fig2_a.int_tuples())?;
        let sr_i32 = capi_mix::plus_times(GrbType::Int32, Value::Int32(0));
        let mxm_facade = timed(3, || {
            let c = GrbMatrix::new(GrbType::Int32, n, n).expect("out");
            grb::mxm(&c, None, None, &sr_i32, &a_dyn, &a_dyn, &d).expect("mxm");
            c.nvals().expect("force")
        });
        let mxm_typed = timed(3, || {
            let c = Matrix::<i32>::new(n, n).expect("out");
            ctx.mxm(
                &c,
                NoMask,
                NoAccum,
                plus_times::<i32>(),
                &a_typed,
                &a_typed,
                &d,
            )
            .expect("mxm");
            c.nvals().expect("force")
        });
        out.push(("capi.mxm_facade_over_typed_x", mxm_facade / mxm_typed, "x"));

        let mv_dyn = matrix(GrbType::Fp64, &g.mv, w_f64.clone())?;
        let u_dyn = capi_mix::build_dense_vector(
            GrbType::Fp64,
            &input
                .iter()
                .map(|&x| Value::Fp64(x as f64))
                .collect::<Vec<_>>(),
            &plus(GrbType::Fp64),
        )?;
        let mv_typed = Matrix::from_tuples(
            mn,
            mn,
            &g.mv
                .edges
                .iter()
                .zip(&weights)
                .map(|(&(u, v), &w)| (u, v, w as f64))
                .collect::<Vec<_>>(),
        )?;
        let u_typed = Vector::from_dense(&input.iter().map(|&x| x as f64).collect::<Vec<_>>())?;
        let sr_f64 = capi_mix::plus_times(GrbType::Fp64, Value::Fp64(0.0));
        let mxv_facade = timed(5, || {
            let w = GrbVector::new(GrbType::Fp64, mn).expect("out");
            grb::mxv(&w, None, None, &sr_f64, &mv_dyn, &u_dyn, &d).expect("mxv");
            w.nvals().expect("force")
        });
        let mxv_typed = timed(5, || {
            let w = Vector::<f64>::new(mn).expect("out");
            ctx.mxv(
                &w,
                NoMask,
                NoAccum,
                plus_times::<f64>(),
                &mv_typed,
                &u_typed,
                &d,
            )
            .expect("mxv");
            w.nvals().expect("force")
        });
        out.push(("capi.mxv_facade_over_typed_x", mxv_facade / mxv_typed, "x"));

        // E14: the erased user-type lane against the built-in INT64 lane
        let sr_i64 = capi_mix::plus_times(GrbType::Int64, Value::Int64(0));
        let mv_i64 = matrix(GrbType::Int64, &g.mv, w_i64)?;
        let u_i64 = capi_mix::build_dense_vector(
            GrbType::Int64,
            &input.iter().map(|&x| Value::Int64(x)).collect::<Vec<_>>(),
            &plus(GrbType::Int64),
        )?;
        let ut = udt.ty.ty();
        let mv_udt = capi_mix::build_matrix(
            ut,
            &g.mv,
            &weights.iter().map(|&w| udt.value(w)).collect::<Vec<_>>(),
            &udt.plus,
        )?;
        let u_udt = capi_mix::build_dense_vector(
            ut,
            &input.iter().map(|&x| udt.value(x)).collect::<Vec<_>>(),
            &udt.plus,
        )?;
        let mxv = |ty: GrbType, sr: &grb::GrbSemiring, a: &GrbMatrix, u: &GrbVector| {
            timed(5, || {
                let w = GrbVector::new(ty, mn).expect("out");
                grb::mxv(&w, None, None, sr, a, u, &d).expect("mxv");
                w.nvals().expect("force")
            })
        };
        out.push((
            "capi.udf_over_builtin_mxv_x",
            mxv(ut, &udt.semiring, &mv_udt, &u_udt) / mxv(GrbType::Int64, &sr_i64, &mv_i64, &u_i64),
            "x",
        ));
        let a_i64 = matrix(GrbType::Int64, &fig2_a, ones_i64)?;
        let a_udt = capi_mix::build_matrix(
            ut,
            &fig2_a,
            &vec![udt.value(1); fig2_a.edges.len()],
            &udt.plus,
        )?;
        let mxm = |ty: GrbType, sr: &grb::GrbSemiring, a: &GrbMatrix| {
            timed(3, || {
                let c = GrbMatrix::new(ty, n, n).expect("out");
                grb::mxm(&c, None, None, sr, a, a, &d).expect("mxm");
                c.nvals().expect("force")
            })
        };
        out.push((
            "capi.udf_over_builtin_mxm_x",
            mxm(ut, &udt.semiring, &a_udt) / mxm(GrbType::Int64, &sr_i64, &a_i64),
            "x",
        ));

        // the fixed cost of one trip through dispatch!: a 1x1 vxm
        let one = GrbMatrix::new(GrbType::Fp64, 1, 1)?;
        one.set(0, 0, Value::Fp64(1.0))?;
        let v = GrbVector::new(GrbType::Fp64, 1)?;
        v.set(0, Value::Fp64(1.0))?;
        let w = GrbVector::new(GrbType::Fp64, 1)?;
        let dispatch_us: Vec<f64> = (0..2000)
            .map(|_| {
                let t0 = Instant::now();
                grb::vxm(&w, None, None, &sr_f64, &v, &one, &d).expect("vxm");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.push(("capi.dispatch_us", median(&dispatch_us), "us"));
        Ok(out)
    });
    out.extend(
        metrics
            .expect("capi session")
            .expect("capi probes ran without an API error"),
    );
}

// ----- algorithms and the reference baselines -----

/// The `bfs_levels` level loop written out in the harness with a span around
/// every Table II call: what is left over is the algorithm layer's own time.
fn bfs_self_share(ctx: &Context, a: &Matrix<bool>, src: Index) -> f64 {
    let tr = Tracer::new(true, 1, Instant::now());
    let n = a.nrows();
    tr.scope("algorithms", "bfs_levels", || {
        let levels = Vector::<i64>::new(n).expect("levels");
        let q = Vector::from_tuples(n, &[(src, true)]).expect("frontier");
        let d0 = Descriptor::default();
        let push = Descriptor::default()
            .complement_mask()
            .structural_mask()
            .replace();
        let mut d = 0i64;
        loop {
            tr.scope("core.op", "assign", || {
                ctx.assign_scalar_vector(&levels, &q, NoAccum, d, ALL, &d0)
                    .expect("assign")
            });
            tr.scope("core.op", "vxm", || {
                ctx.vxm(&q, &levels, NoAccum, lor_land(), &q, a, &push)
                    .expect("vxm")
            });
            if tr.scope("core.op", "nvals", || q.nvals().expect("nvals")) == 0 {
                break;
            }
            d += 1;
        }
        tr.scope("core.op", "extract_tuples", || {
            black_box(levels.extract_tuples().expect("extract"))
        });
    });
    let spans = tr.into_spans();
    self_times(&spans)[0] as f64 / spans[0].dur_ns() as f64
}

fn algorithms(sh: &Shared, out: &mut Vec<Metric>) {
    let ctx = Context::blocking();
    // the A4 generality tax: GraphBLAS median over baseline median, same
    // graph and source
    let mut pair = |ref_name: &'static str, tax_name: &'static str, grb_ms: f64, ref_ms: f64| {
        out.push((ref_name, ref_ms, "ms"));
        out.push((tax_name, grb_ms / ref_ms, "x"));
        grb_ms
    };

    let bc_a = Matrix::from_tuples(sh.bc.n, sh.bc.n, &sh.bc.int_tuples()).expect("build");
    let bc_adj = AdjGraph::from_edges(sh.bc.n, &sh.bc.edges);
    let bc_ms = pair(
        "reference.bc_ms_p50",
        "reference.bc_tax_x",
        timed(2, || {
            alg::bc_update(&ctx, &bc_a, &sh.bc_batch)
                .expect("bc")
                .nvals()
                .expect("force")
        }),
        timed(2, || refr::bc::brandes_batch(&bc_adj, &sh.bc_batch)),
    );

    let trav_adj = AdjGraph::from_edges(sh.trav.n, &sh.trav.edges);
    let bfs_ms = pair(
        "reference.bfs_ms_p50",
        "reference.bfs_tax_x",
        timed(2, || {
            alg::bfs_levels(&ctx, &sh.trav_a, sh.trav_src).expect("bfs")
        }),
        timed(2, || refr::traversal::bfs_levels(&trav_adj, sh.trav_src)),
    );

    let wt = traverse::weights(&sh.cfg, &sh.trav);
    let trav_w = Matrix::from_tuples(sh.trav.n, sh.trav.n, &wt).expect("build");
    let wg = WeightedGraph::from_edges(sh.trav.n, &wt);
    let sssp_ms = pair(
        "reference.sssp_ms_p50",
        "reference.sssp_tax_x",
        timed(2, || {
            alg::sssp_bellman_ford(&ctx, &trav_w, sh.trav_src).expect("sssp")
        }),
        timed(2, || refr::paths::dijkstra(&wg, sh.trav_src)),
    );

    let ag = analytics::graphs(&sh.cfg);
    let am = analytics::matrices(&ag);
    let adj = |g: &EdgeList| AdjGraph::from_edges(g.n, &g.edges);
    let (pr_adj, cc_adj, tc_adj) = (adj(&ag.pr), adj(&ag.cc[0]), adj(&ag.tc[0]));
    let (d, tol, iters) = (analytics::DAMPING, analytics::TOL, analytics::MAX_ITERS);
    let pr_ms = pair(
        "reference.pagerank_ms_p50",
        "reference.pagerank_tax_x",
        timed(2, || {
            alg::pagerank(&ctx, &am.pr, d, tol, iters).expect("pr")
        }),
        timed(2, || refr::pagerank::pagerank(&pr_adj, d, tol, iters)),
    );
    let tc_ms = pair(
        "reference.triangles_ms_p50",
        "reference.triangles_tax_x",
        timed(2, || alg::triangle_count(&ctx, &am.tc[0]).expect("tc")),
        timed(2, || refr::triangles::triangle_count(&tc_adj)),
    );
    let cc_ms = pair(
        "reference.components_ms_p50",
        "reference.components_tax_x",
        timed(2, || {
            alg::connected_components(&ctx, &am.cc[0]).expect("cc")
        }),
        timed(2, || refr::components::connected_components(&cc_adj)),
    );

    out.push(("algorithms.bc_update_ms_p50", bc_ms, "ms"));
    out.push(("algorithms.bfs_levels_ms_p50", bfs_ms, "ms"));
    out.push(("algorithms.sssp_ms_p50", sssp_ms, "ms"));
    out.push(("algorithms.pagerank_ms_p50", pr_ms, "ms"));
    out.push(("algorithms.triangles_ms_p50", tc_ms, "ms"));
    out.push(("algorithms.components_ms_p50", cc_ms, "ms"));
    let (_, pr_iters) = alg::pagerank(&ctx, &am.pr, d, tol, iters).expect("pr");
    out.push(("algorithms.pagerank_iters", pr_iters as f64, "count"));
    out.push(("algorithms.bfs_depth", sh.trav_depth as f64, "count"));
    out.push((
        "algorithms.bfs_self_share",
        bfs_self_share(&ctx, &sh.trav_a, sh.trav_src),
        "ratio",
    ));

    // the coalescing pay-off: one 32-column sweep against 32 single sweeps
    let a = Matrix::from_tuples(sh.bc.n, sh.bc.n, &sh.bc.bool_tuples()).expect("build");
    let multi_ms = timed(2, || alg::bfs_multi(&ctx, &a, &sh.bc_batch).expect("multi"));
    let single_ms = timed(2, || {
        for &s in &sh.bc_batch {
            black_box(alg::bfs_levels(&ctx, &a, s).expect("bfs"));
        }
    });
    out.push(("algorithms.bfs_multi32_ms", multi_ms, "ms"));
    out.push((
        "algorithms.bfs_multi32_over_32_single_x",
        multi_ms / single_ms,
        "x",
    ));
}

// ----- server -----

fn server(sh: &Shared, out: &mut Vec<Metric>) {
    let mut rig = server_mix::Rig::start(&sh.cfg);
    rig.warm_up();
    let svc = rig.service.clone();
    let g = &rig.graphs[0];
    let n = g.n;
    let graph = "g0".to_string();
    let src = g.edges[g.edges.len() / 2].0;
    let bfs = Request::Bfs {
        graph: graph.clone(),
        src,
    };
    let point = Request::Degree {
        graph: graph.clone(),
        v: src,
    };

    let wire_request = bfs.render();
    let wire_reply = Reply::Levels((0..n as i64).map(|v| v % 7 - 1).collect()).render();
    out.push((
        "server.codec_us",
        1e3 * timed(200, || {
            let req = Request::parse(&wire_request).expect("parse");
            let reply = Reply::parse(&wire_reply).expect("parse");
            (req.render(), reply.render())
        }),
        "us",
    ));
    out.push((
        "server.connect_ms",
        timed(20, || {
            Client::connect(rig.server.addr(), "probe", 1).expect("connect")
        }),
        "ms",
    ));

    let submit_bfs_ms = timed(15, || svc.submit("probe", bfs.clone()));
    let submit_point_us = 1e3 * timed(300, || svc.submit("probe", point.clone()));
    let mut client = Client::connect(rig.server.addr(), "probe", 1).expect("connect");
    let call_bfs_ms = timed(15, || client.call(&bfs).expect("call"));
    let call_point_us = 1e3 * timed(300, || client.call(&point).expect("call"));
    let entry = svc.graphs().get(&graph).expect("graph g0");
    let engine_bfs_ms = timed(15, || {
        let frozen = entry.matrix.snapshot().to_matrix();
        alg::bfs_multi(svc.context(), &frozen, &[src]).expect("bfs")
    });
    out.push(("server.submit_bfs_ms", submit_bfs_ms, "ms"));
    out.push(("server.submit_point_us", submit_point_us, "us"));
    out.push((
        "server.wire_bfs_us",
        1e3 * (call_bfs_ms - submit_bfs_ms),
        "us",
    ));
    out.push((
        "server.wire_point_us",
        call_point_us - submit_point_us,
        "us",
    ));
    out.push(("server.engine_bfs_ms", engine_bfs_ms, "ms"));
    out.push((
        "server.sched_overhead_us",
        1e3 * (submit_bfs_ms - engine_bfs_ms),
        "us",
    ));

    // the flush cost a read inherits from a write on the same graph
    let mut rng = Rng::new(sh.cfg.seed, 401);
    let after_write_ms = timed_with(
        10,
        || {
            svc.submit(
                "probe",
                Request::AddEdge {
                    graph: graph.clone(),
                    u: rng.below(n),
                    v: rng.below(n),
                },
            )
        },
        |_| {
            black_box(svc.submit("probe", bfs.clone()));
        },
    );
    out.push((
        "server.bfs_after_write_over_clean_x",
        after_write_ms / submit_bfs_ms,
        "x",
    ));
    drop(client);

    // a short closed loop of the server_mix request mix for the counts and
    // tails the single-request probes above cannot show
    let phase = rig.closed_loop(if sh.cfg.quick { 0.2 } else { 0.5 }, false);
    let extra = |name: &str| {
        phase
            .extra
            .iter()
            .find(|e| e.0 == name)
            .map_or(f64::NAN, |e| e.1)
    };
    out.push(("server.point_us_p50", extra("point_us_p50"), "us"));
    out.push(("server.point_us_p99", extra("point_us_p99"), "us"));
    out.push((
        "server.bfs_ms_p99",
        percentile(&phase.solve_ms(), 99.0),
        "ms",
    ));
    out.push((
        "server.coalesce_req_per_launch",
        extra("coalesce_req_per_launch"),
        "ratio",
    ));
    out.push(("server.shed_ratio", extra("shed_ratio"), "ratio"));
}
