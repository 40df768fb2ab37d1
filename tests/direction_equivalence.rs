//! PR acceptance property for SpMSpV direction optimization
//! (`kernel::spmspv`): the push, pull, and dense matrix–vector kernels
//! are **bitwise** interchangeable — values *and* pattern, NaN / ±∞ /
//! -0.0 payloads included — across execution modes, storage formats,
//! transposition, mask shapes, and intra-kernel parallelism degrees
//! {1, 2, 8}. The heuristic may therefore switch direction per
//! operation without ever changing a result, which the trailing trace
//! test shows it actually does mid-BFS.
//!
//! The direction override is process-wide (kernels run on pool worker
//! threads), so every test that forces a direction serializes on one
//! mutex.

use std::sync::Mutex;

mod common;

use common::{at_degree, contexts, sparse, to_matrix, to_vector, vector_bits, Tuples};
use graphblas_core::options;
use graphblas_core::prelude::*;
use graphblas_core::spmspv::{self, Direction};
use proptest::prelude::*;

const N: usize = 24;
/// A second size whose bitsets span three 64-bit words, the last one
/// partial.
const N_WIDE: usize = 150;
const DEGREES: [usize; 3] = [1, 2, 8];

/// Forced directions are a process-wide override; hold this across any
/// region that sets one so concurrent test threads never interleave.
static DIRECTION_LOCK: Mutex<()> = Mutex::new(());

/// A size, then a matrix and two vectors (input, mask) of that size;
/// entry counts scale with the size.
fn operands() -> impl Strategy<Value = (usize, Tuples, Tuples, Tuples)> {
    prop_oneof![Just(N), Just(N_WIDE)].prop_flat_map(|n| {
        let s = n / N;
        (
            Just(n),
            sparse(n, 96 * s),
            sparse(n, 24 * s),
            sparse(n, 24 * s),
        )
    })
}

const GRIDS: [Option<(usize, usize)>; 2] = [None, Some((4, 4))];

const DIRECTIONS: [Direction; 4] = [
    Direction::Dense,
    Direction::Push,
    Direction::Pull,
    Direction::Auto,
];

fn mask_descriptor(complement: bool, structural: bool) -> Descriptor {
    let mut d = Descriptor::default();
    if complement {
        d = d.complement_mask();
    }
    if structural {
        d = d.structural_mask();
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `vxm` answers bitwise identically whichever direction computes
    /// it, under every (mode, grid, degree, transpose, mask) shape.
    #[test]
    fn vxm_directions_agree_bitwise(
        (n, a, u, mask) in operands(),
        transpose in any::<bool>(),
        complement in any::<bool>(),
        structural in any::<bool>(),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        let desc = if transpose {
            mask_descriptor(complement, structural).transpose_second()
        } else {
            mask_descriptor(complement, structural)
        };
        for ctx in contexts() {
            for grid in GRIDS {
                let am = to_matrix(n, &a, grid);
                let uv = to_vector(n, &u);
                let mv = to_vector(n, &mask);
                for k in DEGREES {
                    let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                        let w = Vector::<f64>::new(n).unwrap();
                        ctx.vxm(&w, &mv, NoAccum, plus_times::<f64>(), &uv, &am, &desc)
                            .unwrap();
                        vector_bits(&w)
                    }));
                    let dense = run(Direction::Dense);
                    for dir in DIRECTIONS {
                        prop_assert_eq!(
                            &dense, &run(dir),
                            "vxm {:?} diverged from Dense (mode {:?} grid {:?} \
                             degree {} transpose {} complement {} structural {})",
                            dir, ctx.mode(), grid, k, transpose, complement, structural
                        );
                    }
                }
            }
        }
    }

    /// Same for `mxv`, whose forward orientation is the transpose of
    /// `vxm`'s — the dispatch must flip push/pull sides accordingly.
    #[test]
    fn mxv_directions_agree_bitwise(
        (n, a, u, mask) in operands(),
        transpose in any::<bool>(),
        complement in any::<bool>(),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        let desc = if transpose {
            mask_descriptor(complement, true).transpose_first()
        } else {
            mask_descriptor(complement, true)
        };
        for ctx in contexts() {
            for grid in GRIDS {
                let am = to_matrix(n, &a, grid);
                let uv = to_vector(n, &u);
                let mv = to_vector(n, &mask);
                for k in DEGREES {
                    let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                        let w = Vector::<f64>::new(n).unwrap();
                        ctx.mxv(&w, &mv, NoAccum, plus_times::<f64>(), &am, &uv, &desc)
                            .unwrap();
                        vector_bits(&w)
                    }));
                    let dense = run(Direction::Dense);
                    for dir in DIRECTIONS {
                        prop_assert_eq!(
                            &dense, &run(dir),
                            "mxv {:?} diverged from Dense (mode {:?} grid {:?} \
                             degree {} transpose {} complement {})",
                            dir, ctx.mode(), grid, k, transpose, complement
                        );
                    }
                }
            }
        }
    }

    /// The no-mask accumulating shape (PageRank's step) agrees too —
    /// the accumulate happens after the product, so direction must not
    /// leak into the merge.
    #[test]
    fn accumulated_vxm_directions_agree(
        (n, a, u, w0) in operands(),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        let ctx = Context::blocking();
        let am = to_matrix(n, &a, None);
        let uv = to_vector(n, &u);
        for k in DEGREES {
            let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                let w = to_vector(n, &w0);
                ctx.vxm(&w, NoMask, Accum(Plus::<f64>::new()), plus_times::<f64>(),
                    &uv, &am, &Descriptor::default()).unwrap();
                vector_bits(&w)
            }));
            let dense = run(Direction::Dense);
            for dir in DIRECTIONS {
                prop_assert_eq!(&dense, &run(dir), "accumulated vxm {:?} diverged", dir);
            }
        }
    }
}

/// Regression: every direction folds an output's products left to right
/// in input order at every degree. A chunked push that summed per-chunk
/// partials as `(p1 ⊕ p2) ⊕ (p3 ⊕ p4)` lost the final `+ 1` here:
/// `((1 + 1e16) - 1e16) + 1 = 1`, but `(1 + 1e16) + (-1e16 + 1) = 0`.
#[test]
fn chunked_directions_keep_the_serial_fold() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let col0 = [1.0, 1e16, -1e16, 1.0];
    let tuples: Vec<(usize, usize, f64)> = (0..16)
        .map(|i| (i, 0, col0.get(i).copied().unwrap_or(0.0)))
        .collect();
    let ones: Vec<(usize, f64)> = (0..16).map(|i| (i, 1.0)).collect();
    let ctx = Context::blocking();
    for grid in GRIDS {
        let a = Matrix::from_tuples(N, N, &tuples).unwrap();
        if let Some((r, c)) = grid {
            a.set_tile_shape(r, c).unwrap();
        }
        let u = Vector::from_tuples(N, &ones).unwrap();
        for k in DEGREES {
            for dir in DIRECTIONS {
                let w0 = at_degree(k, || {
                    spmspv::with_direction(dir, || {
                        let w = Vector::<f64>::new(N).unwrap();
                        ctx.vxm(
                            &w,
                            NoMask,
                            NoAccum,
                            plus_times::<f64>(),
                            &u,
                            &a,
                            &Descriptor::default(),
                        )
                        .unwrap();
                        w.get(0).unwrap()
                    })
                });
                assert_eq!(w0, Some(1.0), "{dir:?} {grid:?} degree {k}");
            }
        }
    }
}

/// E12's qualitative claim, as a test: on a scale-free social graph the
/// heuristic *switches* direction across one BFS — push on the sparse
/// early frontiers, pull (against the complemented visited mask) near
/// the dense peak — and the trace records each choice.
#[test]
fn bfs_trace_shows_direction_switching() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let el = graphblas_gen::barabasi_albert(800, 4, 7).symmetrize();
    let a = Matrix::from_tuples(el.n, el.n, &el.bool_tuples()).unwrap();
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let levels = graphblas_algorithms::bfs_levels(&ctx, &a, 0).unwrap();
    assert!(
        levels.iter().filter(|l| l.is_some()).count() > 700,
        "BA graph should be mostly connected"
    );
    let trace = ctx.take_trace();
    let dirs: Vec<&'static str> = trace.iter().filter_map(|e| e.direction).collect();
    assert!(
        dirs.contains(&"push"),
        "no push step on sparse frontiers; directions: {dirs:?}"
    );
    assert!(
        dirs.contains(&"pull"),
        "no pull step near the frontier peak; directions: {dirs:?}"
    );
    // Push comes first (frontier of one), and some later step pulls —
    // i.e. the switch happens mid-traversal, not between runs.
    let first_push = dirs.iter().position(|d| *d == "push").unwrap();
    let last_pull = dirs.iter().rposition(|d| *d == "pull").unwrap();
    assert!(
        first_push < last_pull,
        "expected push -> pull over the traversal; directions: {dirs:?}"
    );
}

/// The directions of the `vxm`s one traced nonblocking `wait()` ran.
fn traced_directions(ctx: &Context) -> Vec<&'static str> {
    ctx.wait().unwrap();
    ctx.take_trace()
        .iter()
        .filter_map(|e| e.direction)
        .collect()
}

/// PageRank's `vxm` (full input, no mask) on one resident, asymmetric
/// matrix from four threads at once: the store's regret for `A^T`
/// crosses its penalty mid-run, so some calls scatter and later ones
/// pull over the view a racing call built. Every result is bitwise the
/// forced scatter's.
#[test]
fn concurrent_calls_across_the_reverse_view_purchase_agree_bitwise() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let n = 1024;
    let el = graphblas_gen::erdos_renyi_gnm(n, 8 * n, 3);
    let a = Matrix::from_tuples(n, n, &el.weighted_tuples(-1e3, 1e3, 3)).unwrap();
    let ones: Vec<(usize, f64)> = (0..n).map(|i| (i, (i as f64).sin() * 1e8)).collect();
    let u = Vector::from_tuples(n, &ones).unwrap();
    let product = |ctx: &Context| {
        let w = Vector::<f64>::new(n).unwrap();
        ctx.vxm(
            &w,
            NoMask,
            NoAccum,
            plus_times::<f64>(),
            &u,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        w
    };
    let want = spmspv::with_direction(Direction::Dense, || {
        vector_bits(&product(&Context::blocking()))
    });
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let w = product(&ctx);
    assert_eq!(traced_directions(&ctx), ["dense"], "one call buys no view");
    assert_eq!(vector_bits(&w), want);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let ctx = Context::blocking();
                for _ in 0..6 {
                    assert_eq!(vector_bits(&product(&ctx)), want);
                }
            });
        }
    });
    let w = product(&ctx);
    assert_eq!(
        traced_directions(&ctx),
        ["pull"],
        "the view should be bought"
    );
    assert_eq!(vector_bits(&w), want);
}

/// PageRank run twice on one resident matrix: the first run scatters
/// until it buys `A^T` part-way through, and the rerun pulls over it, yet
/// both return the forced scatter's ranks bit for bit.
#[test]
fn pagerank_reruns_pull_and_keep_their_ranks_bitwise() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let n = 1024;
    let el = graphblas_gen::erdos_renyi_gnm(n, 8 * n, 5);
    let a = Matrix::from_tuples(n, n, &el.bool_tuples()).unwrap();
    let bits = |r: Vec<f64>| r.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let rank = |ctx: &Context| {
        let (r, _) = graphblas_algorithms::pagerank(ctx, &a, 0.85, 1e-12, 60).unwrap();
        bits(r)
    };
    let fresh = Matrix::from_tuples(n, n, &el.bool_tuples()).unwrap();
    let want = spmspv::with_direction(Direction::Dense, || {
        let (r, _) =
            graphblas_algorithms::pagerank(&Context::blocking(), &fresh, 0.85, 1e-12, 60).unwrap();
        bits(r)
    });
    // PageRank forces its reductions itself, so no `wait()` traces its
    // `vxm`; the note of the last one says which direction it took
    let ctx = Context::blocking();
    assert_eq!(rank(&ctx), want, "first run");
    assert_eq!(
        graphblas_core::exec::take_notes().direction,
        Some("pull"),
        "first run's last call"
    );
    assert_eq!(rank(&ctx), want, "rerun");
    assert_eq!(
        graphblas_core::exec::take_notes().direction,
        Some("pull"),
        "rerun"
    );
}

/// The override itself restores on scope exit even across panics in
/// the guarded region's siblings — Auto outside, forced inside.
#[test]
fn with_direction_scopes_the_override() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    assert!(matches!(options::direction(), Direction::Auto));
    spmspv::with_direction(Direction::Push, || {
        assert!(matches!(options::direction(), Direction::Push));
    });
    assert!(matches!(options::direction(), Direction::Auto));
}
