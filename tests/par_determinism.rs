//! PR acceptance property for intra-kernel parallelism: every
//! parallelized kernel is **bitwise** identical to its serial path —
//! values *and* pattern — at every worker count, NaN and ±∞ payloads
//! included. [`par::with_cost_model`]`(1, 0, …)` forces chunking even on
//! proptest-sized fixtures, and [`par::with_parallelism`] pins the
//! degree; blocking mode keeps kernels on the calling thread so the
//! thread-local overrides apply.

mod common;

use common::{
    at_degree, fval, matrix_bits, sparse, to_matrix, to_vector, tuples, vector_bits, warm_col_view,
    Tuples,
};
use graphblas_core::prelude::*;
use proptest::prelude::*;

const N: usize = 24;
const DEGREES: [usize; 2] = [2, 8];

const GRIDS: [Option<(usize, usize)>; 2] = [None, Some((4, 4))];

/// Widths of the thin right operands: a single column, the Fig. 3 batch
/// of 32 sources, and one past a 64-bit word.
const THIN: [usize; 3] = [1, 32, 65];

/// A row of `A` whose sequential fold gives exactly 1:
/// `((1 + 1e16) - 1e16) + 1`. A regrouped fold — pairwise, chunked, or
/// one that adds the two 1s together first — rounds to 0 or 2.
const TRAP: [f64; 4] = [1.0, 1e16, -1e16, 1.0];

/// `A` with row 0 replaced by [`TRAP`] at columns 0..4.
fn trap_matrix(t: &Tuples) -> Matrix<f64> {
    let mut tuples: Vec<(usize, usize, f64)> =
        TRAP.iter().enumerate().map(|(k, &v)| (0, k, v)).collect();
    tuples.extend(
        t.iter()
            .filter(|&&(i, _, _)| i != 0)
            .map(|&(i, j, c)| (i, j, fval(c))),
    );
    Matrix::from_tuples(N, N, &tuples).unwrap()
}

/// An `N × w` block from `t`, with `B(0..4, 0) = 1` so `T(0, 0)` folds
/// [`TRAP`]. `trap_col` drops that column when the trap must stay out.
fn thin_matrix(t: &Tuples, w: usize, trap_col: bool) -> Matrix<f64> {
    let mut tuples: Vec<(usize, usize, f64)> = t
        .iter()
        .filter(|&&(i, j, _)| j < w && !(j == 0 && (i < TRAP.len() || trap_col)))
        .map(|&(i, j, c)| (i, j, fval(c)))
        .collect();
    if trap_col {
        tuples.extend((0..TRAP.len()).map(|k| (k, 0, 1.0)));
    }
    Matrix::from_tuples(N, w, &tuples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn thin_block_masked_mxm_is_bitwise_deterministic(
        a in sparse(N, 64),
        b in tuples(N, 65, 96),
        mask in tuples(N, 65, 48),
    ) {
        // `C<M> = A ⊕.⊗ B` for thin B, with and without a complemented
        // mask, B's column view cached (warmed by a transposed read) or
        // not. The masked product may take the dot or the row-wise form;
        // both must equal the unmasked row-wise product written through
        // the same mask, bit for bit, at every degree — the TRAP row
        // included.
        let ctx = Context::blocking();
        let am = trap_matrix(&a);
        for w in THIN {
            for complement in [false, true] {
                // the trap position alone (a mask the dot form always
                // wins) and a random mask that also admits it
                let only_trap = thin_matrix(&Vec::new(), w, false);
                only_trap.set(0, 0, 1.0).unwrap();
                let random = thin_matrix(&mask, w, false);
                random.set(0, 0, 1.0).unwrap();
                let mut desc = Descriptor::default().structural_mask();
                if complement {
                    desc = desc.complement_mask();
                }
                for (mm, warm) in [
                    (&only_trap, false),
                    (&only_trap, true),
                    (&random, false),
                    (&random, true),
                ] {
                    let bm = thin_matrix(&b, w, true);
                    if warm {
                        warm_col_view(&ctx, &bm);
                    }
                    let run = |k| at_degree(k, || {
                        let c = Matrix::<f64>::new(N, w).unwrap();
                        ctx.mxm(&c, mm, NoAccum, plus_times::<f64>(), &am, &bm, &desc).unwrap();
                        matrix_bits(&c)
                    });
                    let serial = run(1);
                    for k in DEGREES {
                        prop_assert_eq!(&serial, &run(k));
                    }
                    let t = Matrix::<f64>::new(N, w).unwrap();
                    ctx.mxm(&t, NoMask, NoAccum, plus_times::<f64>(), &am, &bm,
                        &Descriptor::default()).unwrap();
                    let c = Matrix::<f64>::new(N, w).unwrap();
                    ctx.apply_matrix(&c, mm, NoAccum, Identity::new(), &t, &desc).unwrap();
                    prop_assert_eq!(&serial, &matrix_bits(&c));
                    let trap = serial.iter().find(|e| (e.0, e.1) == (0, 0)).map(|e| e.2);
                    prop_assert_eq!(trap, (!complement).then_some(1f64.to_bits()));
                }
            }
        }
    }

    #[test]
    fn mxm_is_bitwise_deterministic_across_formats(
        a in sparse(N, 64),
        b in sparse(N, 64),
    ) {
        let ctx = Context::blocking();
        for fa in GRIDS {
            let am = to_matrix(N, &a, fa);
            let bm = to_matrix(N, &b, None);
            let run = |k| at_degree(k, || {
                let c = Matrix::<f64>::new(N, N).unwrap();
                ctx.mxm(&c, NoMask, NoAccum, plus_times::<f64>(), &am, &bm,
                    &Descriptor::default()).unwrap();
                matrix_bits(&c)
            });
            let serial = run(1);
            for k in DEGREES {
                prop_assert_eq!(&serial, &run(k));
            }
        }
    }

    #[test]
    fn masked_accumulated_mxm_is_bitwise_deterministic(
        c0 in sparse(N, 48),
        a in sparse(N, 48),
        b in sparse(N, 48),
        mask in sparse(N, 48),
    ) {
        // the full Figure-2 pipeline: compute, accumulate, masked write
        let ctx = Context::blocking();
        let am = to_matrix(N, &a, None);
        let bm = to_matrix(N, &b, None);
        let mm = to_matrix(N, &mask, None);
        let run = |k| at_degree(k, || {
            let c = to_matrix(N, &c0, None);
            ctx.mxm(&c, &mm, Accum(Plus::<f64>::new()), plus_times::<f64>(), &am, &bm,
                &Descriptor::default().structural_mask()).unwrap();
            matrix_bits(&c)
        });
        let serial = run(1);
        for k in DEGREES {
            prop_assert_eq!(&serial, &run(k));
        }
    }

    #[test]
    fn mxv_is_bitwise_deterministic(
        a in sparse(N, 64),
        u in sparse(N, 24),
    ) {
        let ctx = Context::blocking();
        for fa in GRIDS {
            let am = to_matrix(N, &a, fa);
            let uv = to_vector(N, &u);
            let run = |k| at_degree(k, || {
                let w = Vector::<f64>::new(N).unwrap();
                ctx.mxv(&w, NoMask, NoAccum, plus_times::<f64>(), &am, &uv,
                    &Descriptor::default()).unwrap();
                vector_bits(&w)
            });
            let serial = run(1);
            for k in DEGREES {
                prop_assert_eq!(&serial, &run(k));
            }
        }
    }

    #[test]
    fn ewise_add_and_mult_are_bitwise_deterministic(
        a in sparse(N, 64),
        b in sparse(N, 64),
        c0 in sparse(N, 48),
        mask in sparse(N, 48),
    ) {
        let ctx = Context::blocking();
        let am = to_matrix(N, &a, None);
        let bm = to_matrix(N, &b, None);
        let run = |k| at_degree(k, || {
            let s = Matrix::<f64>::new(N, N).unwrap();
            let p = Matrix::<f64>::new(N, N).unwrap();
            ctx.ewise_add_matrix(&s, NoMask, NoAccum, Plus::new(), &am, &bm,
                &Descriptor::default()).unwrap();
            ctx.ewise_mult_matrix(&p, NoMask, NoAccum, Times::new(), &am, &bm,
                &Descriptor::default()).unwrap();
            (matrix_bits(&s), matrix_bits(&p))
        });
        let serial = run(1);
        for k in DEGREES {
            prop_assert_eq!(&serial, &run(k));
        }

        // Masked, accumulated and replacing forms: eWiseMult computes T
        // only where the mask admits, so each must equal the unmasked
        // product written through `apply(Identity)` under the same mask,
        // accumulator and descriptor — at every degree.
        let mm = to_matrix(N, &mask, None);
        let (sum, prod) = serial;
        for complement in [false, true] {
            for replace in [false, true] {
                let mut desc = Descriptor::default().structural_mask();
                if complement {
                    desc = desc.complement_mask();
                }
                if replace {
                    desc = desc.replace();
                }
                for accum in [false, true] {
                    let written = |t: &Matrix<f64>| {
                        let c = to_matrix(N, &c0, None);
                        if accum {
                            ctx.apply_matrix(&c, &mm, Accum(Plus::<f64>::new()), Identity::new(),
                                t, &desc).unwrap();
                        } else {
                            ctx.apply_matrix(&c, &mm, NoAccum, Identity::new(), t, &desc).unwrap();
                        }
                        matrix_bits(&c)
                    };
                    let from_bits = |bits: &[(usize, usize, u64)]| {
                        let t: Vec<_> = bits.iter().map(|&(i, j, x)| (i, j, f64::from_bits(x))).collect();
                        Matrix::from_tuples(N, N, &t).unwrap()
                    };
                    let want = (written(&from_bits(&sum)), written(&from_bits(&prod)));
                    for k in [1, 2, 8] {
                        let got = at_degree(k, || {
                            let s = to_matrix(N, &c0, None);
                            let p = to_matrix(N, &c0, None);
                            if accum {
                                ctx.ewise_add_matrix(&s, &mm, Accum(Plus::<f64>::new()), Plus::new(),
                                    &am, &bm, &desc).unwrap();
                                ctx.ewise_mult_matrix(&p, &mm, Accum(Plus::<f64>::new()), Times::new(),
                                    &am, &bm, &desc).unwrap();
                            } else {
                                ctx.ewise_add_matrix(&s, &mm, NoAccum, Plus::new(), &am, &bm, &desc)
                                    .unwrap();
                                ctx.ewise_mult_matrix(&p, &mm, NoAccum, Times::new(), &am, &bm, &desc)
                                    .unwrap();
                            }
                            (matrix_bits(&s), matrix_bits(&p))
                        });
                        prop_assert_eq!(&want, &got,
                            "scmp {} replace {} accum {} degree {}", complement, replace, accum, k);
                    }
                }
            }
        }
    }

    #[test]
    fn apply_is_bitwise_deterministic(a in sparse(N, 64)) {
        let ctx = Context::blocking();
        let am = to_matrix(N, &a, None);
        let run = |k| at_degree(k, || {
            let c = Matrix::<f64>::new(N, N).unwrap();
            ctx.apply_matrix(&c, NoMask, NoAccum, Ainv::new(), &am,
                &Descriptor::default()).unwrap();
            matrix_bits(&c)
        });
        let serial = run(1);
        for k in DEGREES {
            prop_assert_eq!(&serial, &run(k));
        }
    }

    #[test]
    fn reductions_are_bitwise_deterministic(a in sparse(N, 96)) {
        // float ⊕ is non-associative, so the tree merge uses the same
        // fixed chunking on the serial and parallel paths — the scalar
        // results must match to the bit, NaN included.
        let ctx = Context::blocking();
        let am = to_matrix(N, &a, None);
        let run = |k| at_degree(k, || {
            let w = Vector::<f64>::new(N).unwrap();
            ctx.reduce_rows(&w, NoMask, NoAccum, PlusMonoid::new(), &am,
                &Descriptor::default()).unwrap();
            let s = ctx.reduce_matrix_to_scalar(PlusMonoid::new(), &am).unwrap();
            (vector_bits(&w), s.to_bits())
        });
        let serial = run(1);
        for k in DEGREES {
            prop_assert_eq!(&serial, &run(k));
        }
    }

    #[test]
    fn assign_and_extract_are_bitwise_deterministic(
        c0 in sparse(N, 48),
        a in sparse(N, 48),
    ) {
        let ctx = Context::blocking();
        let am = to_matrix(N, &a, None);
        let run = |k| at_degree(k, || {
            let c = to_matrix(N, &c0, None);
            ctx.assign_matrix(&c, NoMask, Accum(Plus::<f64>::new()), &am, ALL, ALL,
                &Descriptor::default()).unwrap();
            let sub = Matrix::<f64>::new(N / 2, N).unwrap();
            let rows: Vec<usize> = (0..N / 2).map(|i| 2 * i).collect();
            ctx.extract_matrix(&sub, NoMask, NoAccum, &c,
                IndexSelection::List(&rows), ALL, &Descriptor::default()).unwrap();
            (matrix_bits(&c), matrix_bits(&sub))
        });
        let serial = run(1);
        for k in DEGREES {
            prop_assert_eq!(&serial, &run(k));
        }
    }
}
