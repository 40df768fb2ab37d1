//! Experiment E1 (DESIGN.md), paper §IV: "the results from blocking and
//! nonblocking modes should be identical". Random sequences of
//! GraphBLAS method calls are interpreted twice — once per mode — and
//! every observable object must agree. Integer arithmetic keeps
//! equality exact (no round-off caveat needed).

mod common;

use common::warm_col_view;
use graphblas_core::prelude::*;
use proptest::prelude::*;

/// One step of a random method sequence over a pool of 3 square
/// matrices.
#[derive(Debug, Clone)]
enum Step {
    Mxm {
        c: usize,
        a: usize,
        b: usize,
        masked: bool,
        accum: bool,
        tran: bool,
        replace: bool,
    },
    EwiseAdd {
        c: usize,
        a: usize,
        b: usize,
    },
    EwiseMult {
        c: usize,
        a: usize,
        b: usize,
        masked: bool,
    },
    Apply {
        c: usize,
        a: usize,
        negate: bool,
    },
    Transpose {
        c: usize,
        a: usize,
    },
    AssignScalar {
        c: usize,
        v: i64,
    },
    Clear {
        c: usize,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let idx = 0usize..3;
    prop_oneof![
        (
            idx.clone(),
            idx.clone(),
            idx.clone(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(c, a, b, masked, accum, tran, replace)| Step::Mxm {
                c,
                a,
                b,
                masked,
                accum,
                tran,
                replace
            }),
        (idx.clone(), idx.clone(), idx.clone()).prop_map(|(c, a, b)| Step::EwiseAdd { c, a, b }),
        (idx.clone(), idx.clone(), idx.clone(), any::<bool>())
            .prop_map(|(c, a, b, masked)| Step::EwiseMult { c, a, b, masked }),
        (idx.clone(), idx.clone(), any::<bool>()).prop_map(|(c, a, negate)| Step::Apply {
            c,
            a,
            negate
        }),
        (idx.clone(), idx.clone()).prop_map(|(c, a)| Step::Transpose { c, a }),
        (idx.clone(), -5i64..5).prop_map(|(c, v)| Step::AssignScalar { c, v }),
        idx.prop_map(|c| Step::Clear { c }),
    ]
}

const N: usize = 5;

/// Per-pool-object storage hint: `Some(grid)` shards the object into a
/// tile grid ([`Matrix::set_tile_shape`]), `None` leaves it one slab.
fn grids_strategy() -> impl Strategy<Value = Vec<Option<(usize, usize)>>> {
    proptest::collection::vec(prop_oneof![Just(None), Just(Some((4, 4)))], 3)
}

fn interpret(
    ctx: &Context,
    seeds: &[Vec<(usize, usize, i64)>],
    steps: &[Step],
) -> Vec<Vec<(usize, usize, i64)>> {
    interpret_with_grids(ctx, seeds, steps, &[None, None, None])
}

fn interpret_with_grids(
    ctx: &Context,
    seeds: &[Vec<(usize, usize, i64)>],
    steps: &[Step],
    grids: &[Option<(usize, usize)>],
) -> Vec<Vec<(usize, usize, i64)>> {
    let pool: Vec<Matrix<i64>> = seeds
        .iter()
        .map(|t| Matrix::from_tuples(N, N, t).unwrap())
        .collect();
    for (m, grid) in pool.iter().zip(grids) {
        if let Some((r, c)) = *grid {
            m.set_tile_shape(r, c).unwrap();
        }
    }
    let d = Descriptor::default();
    for s in steps {
        match *s {
            Step::Mxm {
                c,
                a,
                b,
                masked,
                accum,
                tran,
                replace,
            } => {
                let mut desc = Descriptor::default().structural_mask();
                if tran {
                    desc = desc.transpose_first();
                }
                if replace {
                    desc = desc.replace();
                }
                // mask and output may alias inputs: snapshots keep it
                // well defined
                match (masked, accum) {
                    (false, false) => ctx.mxm(
                        &pool[c],
                        NoMask,
                        NoAccum,
                        plus_times::<i64>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                    (true, false) => ctx.mxm(
                        &pool[c],
                        &pool[a],
                        NoAccum,
                        plus_times::<i64>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                    (false, true) => ctx.mxm(
                        &pool[c],
                        NoMask,
                        Accum(Plus::<i64>::new()),
                        plus_times::<i64>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                    (true, true) => ctx.mxm(
                        &pool[c],
                        &pool[b],
                        Accum(Plus::<i64>::new()),
                        plus_times::<i64>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                }
                .unwrap();
            }
            Step::EwiseAdd { c, a, b } => {
                ctx.ewise_add_matrix(
                    &pool[c],
                    NoMask,
                    NoAccum,
                    Plus::new(),
                    &pool[a],
                    &pool[b],
                    &d,
                )
                .unwrap();
            }
            Step::EwiseMult { c, a, b, masked } => {
                if masked {
                    ctx.ewise_mult_matrix(
                        &pool[c],
                        &pool[b],
                        NoAccum,
                        Times::new(),
                        &pool[a],
                        &pool[b],
                        &Descriptor::default().structural_mask(),
                    )
                    .unwrap();
                } else {
                    ctx.ewise_mult_matrix(
                        &pool[c],
                        NoMask,
                        NoAccum,
                        Times::new(),
                        &pool[a],
                        &pool[b],
                        &d,
                    )
                    .unwrap();
                }
            }
            Step::Apply { c, a, negate } => {
                if negate {
                    ctx.apply_matrix(&pool[c], NoMask, NoAccum, Ainv::new(), &pool[a], &d)
                        .unwrap();
                } else {
                    ctx.apply_matrix(&pool[c], NoMask, NoAccum, Identity::new(), &pool[a], &d)
                        .unwrap();
                }
            }
            Step::Transpose { c, a } => {
                ctx.transpose(&pool[c], NoMask, NoAccum, &pool[a], &d)
                    .unwrap();
            }
            Step::AssignScalar { c, v } => {
                ctx.assign_scalar_matrix(&pool[c], NoMask, NoAccum, v, ALL, ALL, &d)
                    .unwrap();
            }
            Step::Clear { c } => pool[c].clear(),
        }
    }
    ctx.wait().unwrap();
    pool.iter().map(|m| m.extract_tuples().unwrap()).collect()
}

fn seeds_strategy() -> impl Strategy<Value = Vec<Vec<(usize, usize, i64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..N, 0..N, -4i64..4), 0..10).prop_map(|mut t| {
            t.sort_by_key(|&(i, j, _)| (i, j));
            t.dedup_by_key(|&mut (i, j, _)| (i, j));
            t
        }),
        3,
    )
}

/// One step, returning the call's result instead of unwrapping — the
/// fault-injecting properties need ops to be able to fail (blocking
/// mode reports an injected fault from the call itself).
fn run_step(ctx: &Context, pool: &[Matrix<i64>], s: &Step) -> Result<()> {
    let d = Descriptor::default();
    match *s {
        Step::Mxm {
            c,
            a,
            b,
            masked,
            accum,
            tran,
            replace,
        } => {
            let mut desc = Descriptor::default().structural_mask();
            if tran {
                desc = desc.transpose_first();
            }
            if replace {
                desc = desc.replace();
            }
            match (masked, accum) {
                (false, false) => ctx.mxm(
                    &pool[c],
                    NoMask,
                    NoAccum,
                    plus_times::<i64>(),
                    &pool[a],
                    &pool[b],
                    &desc,
                ),
                (true, false) => ctx.mxm(
                    &pool[c],
                    &pool[a],
                    NoAccum,
                    plus_times::<i64>(),
                    &pool[a],
                    &pool[b],
                    &desc,
                ),
                (false, true) => ctx.mxm(
                    &pool[c],
                    NoMask,
                    Accum(Plus::<i64>::new()),
                    plus_times::<i64>(),
                    &pool[a],
                    &pool[b],
                    &desc,
                ),
                (true, true) => ctx.mxm(
                    &pool[c],
                    &pool[b],
                    Accum(Plus::<i64>::new()),
                    plus_times::<i64>(),
                    &pool[a],
                    &pool[b],
                    &desc,
                ),
            }
        }
        Step::EwiseAdd { c, a, b } => ctx.ewise_add_matrix(
            &pool[c],
            NoMask,
            NoAccum,
            Plus::new(),
            &pool[a],
            &pool[b],
            &d,
        ),
        Step::EwiseMult { c, a, b, masked } => {
            if masked {
                ctx.ewise_mult_matrix(
                    &pool[c],
                    &pool[b],
                    NoAccum,
                    Times::new(),
                    &pool[a],
                    &pool[b],
                    &Descriptor::default().structural_mask(),
                )
            } else {
                ctx.ewise_mult_matrix(
                    &pool[c],
                    NoMask,
                    NoAccum,
                    Times::new(),
                    &pool[a],
                    &pool[b],
                    &d,
                )
            }
        }
        Step::Apply { c, a, negate } => {
            if negate {
                ctx.apply_matrix(&pool[c], NoMask, NoAccum, Ainv::new(), &pool[a], &d)
            } else {
                ctx.apply_matrix(&pool[c], NoMask, NoAccum, Identity::new(), &pool[a], &d)
            }
        }
        Step::Transpose { c, a } => ctx.transpose(&pool[c], NoMask, NoAccum, &pool[a], &d),
        Step::AssignScalar { c, v } => {
            ctx.assign_scalar_matrix(&pool[c], NoMask, NoAccum, v, ALL, ALL, &d)
        }
        Step::Clear { c } => {
            pool[c].clear();
            Ok(())
        }
    }
}

/// Interpret a sequence with faults injected before the steps named in
/// `faults`. Returns each pool object's final observation — its tuples,
/// or the error observing it reports (a poisoned object stays poisoned,
/// §V) — plus the first error the run surfaced (from the failing call
/// in blocking mode, from `wait()` in nonblocking mode).
#[allow(clippy::type_complexity)]
fn interpret_faulty(
    ctx: &Context,
    seeds: &[Vec<(usize, usize, i64)>],
    steps: &[Step],
    faults: &[usize],
) -> (Vec<Result<Vec<(usize, usize, i64)>>>, Option<Error>) {
    let pool: Vec<Matrix<i64>> = seeds
        .iter()
        .map(|t| Matrix::from_tuples(N, N, t).unwrap())
        .collect();
    let mut first_err: Option<Error> = None;
    for (k, s) in steps.iter().enumerate() {
        if faults.contains(&k) {
            ctx.inject_fault(Error::InjectedFault(format!("fault@{k}")));
        }
        if let Err(e) = run_step(ctx, &pool, s) {
            first_err.get_or_insert(e);
        }
    }
    if let Err(e) = ctx.wait() {
        first_err.get_or_insert(e);
    }
    let obs = pool.iter().map(|m| m.extract_tuples()).collect();
    (obs, first_err)
}

/// A nonblocking context with execution tracing on.
fn traced_nonblocking() -> Context {
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocking_equals_nonblocking(
        seeds in seeds_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..20),
    ) {
        let blocking = interpret(&Context::blocking(), &seeds, &steps);
        let nonblocking = interpret(&Context::nonblocking(), &seeds, &steps);
        prop_assert_eq!(blocking, nonblocking);
    }

    #[test]
    fn interleaved_observation_matches_end_observation(
        seeds in seeds_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        // forcing completion mid-sequence (via nvals) must not change
        // final results
        let plain = interpret(&Context::nonblocking(), &seeds, &steps);
        let ctx = Context::nonblocking();
        let pool: Vec<Matrix<i64>> = seeds
            .iter()
            .map(|t| Matrix::from_tuples(N, N, t).unwrap())
            .collect();
        let d = Descriptor::default();
        for (k, s) in steps.iter().enumerate() {
            // re-run the same interpretation inline, observing after
            // every second step
            match *s {
                Step::Mxm { c, a, b, masked, accum, tran, replace } => {
                    let mut desc = Descriptor::default().structural_mask();
                    if tran { desc = desc.transpose_first(); }
                    if replace { desc = desc.replace(); }
                    match (masked, accum) {
                        (false, false) => ctx.mxm(&pool[c], NoMask, NoAccum, plus_times::<i64>(), &pool[a], &pool[b], &desc),
                        (true, false) => ctx.mxm(&pool[c], &pool[a], NoAccum, plus_times::<i64>(), &pool[a], &pool[b], &desc),
                        (false, true) => ctx.mxm(&pool[c], NoMask, Accum(Plus::<i64>::new()), plus_times::<i64>(), &pool[a], &pool[b], &desc),
                        (true, true) => ctx.mxm(&pool[c], &pool[b], Accum(Plus::<i64>::new()), plus_times::<i64>(), &pool[a], &pool[b], &desc),
                    }.unwrap();
                }
                Step::EwiseAdd { c, a, b } => ctx.ewise_add_matrix(&pool[c], NoMask, NoAccum, Plus::new(), &pool[a], &pool[b], &d).unwrap(),
                Step::EwiseMult { c, a, b, masked } => {
                    if masked {
                        ctx.ewise_mult_matrix(&pool[c], &pool[b], NoAccum, Times::new(), &pool[a], &pool[b], &Descriptor::default().structural_mask()).unwrap()
                    } else {
                        ctx.ewise_mult_matrix(&pool[c], NoMask, NoAccum, Times::new(), &pool[a], &pool[b], &d).unwrap()
                    }
                }
                Step::Apply { c, a, negate } => {
                    if negate {
                        ctx.apply_matrix(&pool[c], NoMask, NoAccum, Ainv::new(), &pool[a], &d).unwrap()
                    } else {
                        ctx.apply_matrix(&pool[c], NoMask, NoAccum, Identity::new(), &pool[a], &d).unwrap()
                    }
                }
                Step::Transpose { c, a } => ctx.transpose(&pool[c], NoMask, NoAccum, &pool[a], &d).unwrap(),
                Step::AssignScalar { c, v } => ctx.assign_scalar_matrix(&pool[c], NoMask, NoAccum, v, ALL, ALL, &d).unwrap(),
                Step::Clear { c } => pool[c].clear(),
            }
            if k % 2 == 1 {
                // observation forces completion of this object's cone
                let _ = pool[k % 3].nvals().unwrap();
            }
        }
        ctx.wait().unwrap();
        let observed: Vec<_> = pool.iter().map(|m| m.extract_tuples().unwrap()).collect();
        prop_assert_eq!(observed, plain);
    }

    /// The storage engine must be invisible: sharding pool objects into
    /// a tile grid (or leaving them one slab) changes no observable
    /// result, in any execution mode. A grid also directs every
    /// *computed* result into that layout, so this drives the tiled
    /// kernel paths, not just conversions.
    #[test]
    fn formats_are_observationally_invisible(
        seeds in seeds_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..16),
        grids in grids_strategy(),
    ) {
        let baseline = interpret(&Context::blocking(), &seeds, &steps);
        let blk = interpret_with_grids(&Context::blocking(), &seeds, &steps, &grids);
        let nb = interpret_with_grids(&Context::nonblocking(), &seeds, &steps, &grids);
        prop_assert_eq!(&blk, &baseline);
        prop_assert_eq!(&nb, &baseline);
    }

    /// Deferral must be invisible: blocking, nonblocking, and
    /// nonblocking with tracing on (whose `wait()` computes each node
    /// through the trace hook) agree on every observable object.
    #[test]
    fn three_execution_paths_agree(
        seeds in seeds_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..20),
    ) {
        let blocking = interpret(&Context::blocking(), &seeds, &steps);
        let nonblocking = interpret(&Context::nonblocking(), &seeds, &steps);
        let traced = interpret(&traced_nonblocking(), &seeds, &steps);
        prop_assert_eq!(&blocking, &nonblocking);
        prop_assert_eq!(&nonblocking, &traced);
    }

    /// §V under deferral: injected execution faults poison the same
    /// objects in all three execution paths, and both nonblocking paths
    /// report the same program-order-first error from `wait()`.
    /// (Blocking's error comes from the failing call itself and may
    /// name an op that nonblocking elides as dead code, so only its
    /// *object states* are compared.)
    #[test]
    fn injected_faults_are_schedule_independent(
        seeds in seeds_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..16),
        faults in proptest::collection::vec(0usize..16, 1..3),
    ) {
        let (obs_blk, _err_blk) =
            interpret_faulty(&Context::blocking(), &seeds, &steps, &faults);
        let (obs_nb, err_nb) =
            interpret_faulty(&Context::nonblocking(), &seeds, &steps, &faults);
        let (obs_traced, err_traced) =
            interpret_faulty(&traced_nonblocking(), &seeds, &steps, &faults);
        prop_assert_eq!(&obs_blk, &obs_nb);
        prop_assert_eq!(&obs_nb, &obs_traced);
        prop_assert_eq!(&err_nb, &err_traced);
    }
}

// ---------------------------------------------------------------------------
// Float value classes: §IV equivalence must hold for IEEE-754 special
// values too — NaN, ±∞, and -0.0 — in both execution modes.
// Equality is semantic: NaNs (any payload) count
// as equal, and comparisons otherwise use IEEE `==` (so 0.0 == -0.0 —
// the sign of a zero is not an observation the paper's modes contract
// covers, but NaN-vs-number very much is).
// ---------------------------------------------------------------------------

/// The special-heavy palette float seeds draw from.
const FLOAT_CLASS: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1.5,
    -2.0,
    3.0,
];

fn float_seeds_strategy() -> impl Strategy<Value = Vec<Vec<(usize, usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..N, 0..N, 0usize..FLOAT_CLASS.len()), 0..10).prop_map(
            |mut t| {
                t.sort_by_key(|&(i, j, _)| (i, j));
                t.dedup_by_key(|&mut (i, j, _)| (i, j));
                t.into_iter()
                    .map(|(i, j, k)| (i, j, FLOAT_CLASS[k]))
                    .collect()
            },
        ),
        3,
    )
}

/// A float step: a subset of the integer interpreter whose kernels are
/// order-deterministic per element, so cross-schedule agreement is
/// exact (not merely up to round-off).
#[derive(Debug, Clone)]
enum FStep {
    Mxm {
        c: usize,
        a: usize,
        b: usize,
        masked: bool,
    },
    EwiseAdd {
        c: usize,
        a: usize,
        b: usize,
    },
    EwiseMult {
        c: usize,
        a: usize,
        b: usize,
    },
    Negate {
        c: usize,
        a: usize,
    },
    Transpose {
        c: usize,
        a: usize,
    },
}

fn fstep_strategy() -> impl Strategy<Value = FStep> {
    let idx = 0usize..3;
    prop_oneof![
        (idx.clone(), idx.clone(), idx.clone(), any::<bool>())
            .prop_map(|(c, a, b, masked)| FStep::Mxm { c, a, b, masked }),
        (idx.clone(), idx.clone(), idx.clone()).prop_map(|(c, a, b)| FStep::EwiseAdd { c, a, b }),
        (idx.clone(), idx.clone(), idx.clone()).prop_map(|(c, a, b)| FStep::EwiseMult { c, a, b }),
        (idx.clone(), idx.clone()).prop_map(|(c, a)| FStep::Negate { c, a }),
        (idx.clone(), idx.clone()).prop_map(|(c, a)| FStep::Transpose { c, a }),
    ]
}

/// Final tuples of each pool object, plus the Min/Max/Plus scalar
/// reductions of pool object 0 — the scalar observations exercise the
/// fmin/fmax NaN semantics (and the dot-reduce rewrite) on every path.
type FloatObs = (Vec<Vec<(usize, usize, f64)>>, [f64; 3]);

fn interpret_floats(
    ctx: &Context,
    seeds: &[Vec<(usize, usize, f64)>],
    steps: &[FStep],
) -> FloatObs {
    let pool: Vec<Matrix<f64>> = seeds
        .iter()
        .map(|t| Matrix::from_tuples(N, N, t).unwrap())
        .collect();
    let d = Descriptor::default();
    for s in steps {
        match *s {
            FStep::Mxm { c, a, b, masked } => {
                if masked {
                    ctx.mxm(
                        &pool[c],
                        &pool[a],
                        NoAccum,
                        plus_times::<f64>(),
                        &pool[a],
                        &pool[b],
                        &Descriptor::default().structural_mask(),
                    )
                } else {
                    ctx.mxm(
                        &pool[c],
                        NoMask,
                        NoAccum,
                        plus_times::<f64>(),
                        &pool[a],
                        &pool[b],
                        &d,
                    )
                }
                .unwrap();
            }
            FStep::EwiseAdd { c, a, b } => ctx
                .ewise_add_matrix(
                    &pool[c],
                    NoMask,
                    NoAccum,
                    Plus::new(),
                    &pool[a],
                    &pool[b],
                    &d,
                )
                .unwrap(),
            FStep::EwiseMult { c, a, b } => ctx
                .ewise_mult_matrix(
                    &pool[c],
                    NoMask,
                    NoAccum,
                    Times::new(),
                    &pool[a],
                    &pool[b],
                    &d,
                )
                .unwrap(),
            FStep::Negate { c, a } => ctx
                .apply_matrix(&pool[c], NoMask, NoAccum, Ainv::new(), &pool[a], &d)
                .unwrap(),
            FStep::Transpose { c, a } => ctx
                .transpose(&pool[c], NoMask, NoAccum, &pool[a], &d)
                .unwrap(),
        }
    }
    let scalars = [
        ctx.reduce_matrix_to_scalar(MinMonoid::<f64>::new(), &pool[0])
            .unwrap(),
        ctx.reduce_matrix_to_scalar(MaxMonoid::<f64>::new(), &pool[0])
            .unwrap(),
        ctx.reduce_matrix_to_scalar(PlusMonoid::<f64>::new(), &pool[0])
            .unwrap(),
    ];
    ctx.wait().unwrap();
    let tuples = pool.iter().map(|m| m.extract_tuples().unwrap()).collect();
    (tuples, scalars)
}

/// IEEE equality extended with a single NaN class.
fn f64_semantic_eq(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn float_obs_eq(x: &FloatObs, y: &FloatObs) -> bool {
    let tuples_eq = x.0.len() == y.0.len()
        && x.0.iter().zip(&y.0).all(|(p, q)| {
            p.len() == q.len()
                && p.iter()
                    .zip(q)
                    .all(|(&(i, j, u), &(k, l, v))| (i, j) == (k, l) && f64_semantic_eq(u, v))
        });
    tuples_eq && x.1.iter().zip(&y.1).all(|(&u, &v)| f64_semantic_eq(u, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn float_specials_agree_across_paths_and_fusion(
        seeds in float_seeds_strategy(),
        steps in proptest::collection::vec(fstep_strategy(), 1..14),
    ) {
        let blocking = interpret_floats(&Context::blocking(), &seeds, &steps);
        let nonblocking = interpret_floats(&Context::nonblocking(), &seeds, &steps);
        prop_assert!(
            float_obs_eq(&blocking, &nonblocking),
            "nonblocking diverged from blocking:\n  blocking: {:?}\n  nonblocking: {:?}",
            blocking, nonblocking
        );
    }
}

/// Widths of the thin right operands a masked `mxm` is fed below: one
/// column, the Fig. 3 batch of 32 sources, and one past a 64-bit word.
const THIN: [usize; 3] = [1, 32, 65];

fn thin_strategy() -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    proptest::collection::vec((0..N, 0..65usize, -4i64..4), 0..40).prop_map(|mut t| {
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        t
    })
}

/// `C<M> ⊕= A ⊕.⊗ B` for every thin width, with the mask plain or
/// complemented and `B`'s column view cold or warmed by a transposed
/// read (so the dot form costs no transpose).
fn interpret_thin(
    ctx: &Context,
    a: &[(usize, usize, i64)],
    b: &[(usize, usize, i64)],
    mask: &[(usize, usize, i64)],
    replace: bool,
) -> Vec<Vec<(usize, usize, i64)>> {
    let am = Matrix::from_tuples(N, N, a).unwrap();
    let mut out = Vec::new();
    for w in THIN {
        let narrow = |t: &[(usize, usize, i64)]| {
            let t: Vec<_> = t.iter().copied().filter(|&(_, j, _)| j < w).collect();
            Matrix::from_tuples(N, w, &t).unwrap()
        };
        let mm = narrow(mask);
        for (complement, warm) in [(false, false), (false, true), (true, false), (true, true)] {
            let bm = narrow(b);
            if warm {
                warm_col_view(ctx, &bm);
            }
            let mut desc = Descriptor::default();
            if complement {
                desc = desc.complement_mask();
            }
            if replace {
                desc = desc.replace();
            }
            let c = narrow(b);
            ctx.mxm(
                &c,
                &mm,
                Accum(Plus::<i64>::new()),
                plus_times::<i64>(),
                &am,
                &bm,
                &desc,
            )
            .unwrap();
            out.push(c);
        }
    }
    ctx.wait().unwrap();
    out.iter().map(|m| m.extract_tuples().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn thin_block_masked_mxm_agrees_across_modes(
        seeds in seeds_strategy(),
        b in thin_strategy(),
        mask in thin_strategy(),
        replace in any::<bool>(),
    ) {
        let blocking = interpret_thin(&Context::blocking(), &seeds[0], &b, &mask, replace);
        let nonblocking = interpret_thin(&Context::nonblocking(), &seeds[0], &b, &mask, replace);
        prop_assert_eq!(&blocking, &nonblocking);
    }
}
