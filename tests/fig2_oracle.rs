//! The core operations against the Figure 2 oracle of
//! `graphblas-reference` (`fig2`): `mxm`, `eWiseAdd`, `eWiseMult` and the
//! vector `extract` and `assign` under every mask form (none, valued,
//! structural, complemented), with and without an accumulator (`Minus`
//! for the matrix operations, so the operand order shows), in merge
//! and replace mode — compared bit for bit.
//!
//! The old output of the matrix cases is what was drawn, that plus every
//! position of **T**, or full: an accumulate whose **T** stores nothing
//! outside the old output folds into the old output's own storage, so
//! those cases run in both modes, alone and beside a `dup` that shares
//! the storage and must keep the old value.
//!
//! The shapes are the thin blocks of Fig. 3 (n × 1, n × 32, n × 65),
//! masks are often a single entry, and `A`'s row 0 is the f64 trap row
//! `[1, 1e16, -1e16, 1]` whose only correct fold is ascending-`k`. Every
//! kernel is forced to chunk (`par::with_cost_model(1, 0, …)`), so the
//! row emitter's chunk concatenation is checked at whatever degree
//! `GRB_TEST_THREADS` sets.
//!
//! The vector cases run at n ∈ {1, 63, 64, 65} — one element and both
//! sides of a 64-bit word — over `GrB_ALL`, a range, an index list with
//! repeats (extract only) and a permutation, plus assign's scalar form.
//! Vector `eWiseAdd`/`eWiseMult` run at the same sizes under a
//! non-commutative `Minus`. Their operands, extract's source and the old
//! output of extract, `eWise`, `mxv` and `vxm` each come drawn, one short
//! of full, or full, since a full vector takes positional kernels.
//!
//! `mxv` and `vxm` run at the same sizes, with and without `TRAN`, under
//! each forced SpMSpV direction over a slab and a tiled `A`; `A`'s row 0
//! and column 0 carry the trap, so both products fold it.
//!
//! The aliasing cases make the output an input or the mask (`C ⊕= C·B`,
//! `C<C> = A·B`, eWise with `C` as an operand, `w<w> = A·w`,
//! `w ⊕= wᵀA`, vector extract/assign reading or masked by `w`) in both
//! execution modes, against the oracle fed the old output.

mod common;

use common::{fval, tuples, Tuples};
use graphblas_core::accum::Accumulate;
use graphblas_core::object::{MatrixMask, VectorMask};
use graphblas_core::par;
use graphblas_core::prelude::*;
use graphblas_core::spmspv::{self, Direction};
use graphblas_reference::fig2::{self, Dense, Mask};
use proptest::prelude::*;

const N: usize = 24;
const THIN: [usize; 3] = [1, 32, 65];
const TRAP: [f64; 4] = [1.0, 1e16, -1e16, 1.0];

/// A mask source: a single entry half the time, else a random pattern
/// with stored `false`s (odd codes) that only a structural mask admits.
fn mask_tuples(nrows: usize, ncols: usize) -> impl Strategy<Value = Tuples> {
    (tuples(nrows, ncols, 48), 0u8..2).prop_map(|(t, one)| {
        if one == 0 {
            t.into_iter().take(1).map(|(i, j, _)| (i, j, 0)).collect()
        } else {
            t
        }
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Mxm,
    EwiseAdd,
    EwiseMult,
}

/// `(structural, complement)` of each masked form; `None` is no mask.
const MASKS: [Option<(bool, bool)>; 5] = [
    None,
    Some((false, false)),
    Some((true, false)),
    Some((false, true)),
    Some((true, true)),
];

/// The inputs of one case at one width `w`, both as matrices and as the
/// oracle's dense form.
struct Case {
    w: usize,
    a: Matrix<f64>,
    b: Matrix<f64>,
    mask: Matrix<bool>,
    dense_a: Dense<f64>,
    dense_b: Dense<f64>,
    dense_c0: Dense<f64>,
    dense_mask: Dense<bool>,
}

fn dense<T: Clone>(nrows: usize, ncols: usize, t: &[(usize, usize, T)]) -> Dense<T> {
    let mut d = fig2::empty(nrows, ncols);
    for (i, j, v) in t {
        d[*i][*j] = Some(v.clone());
    }
    d
}

impl Case {
    fn new(a: &Tuples, b: &Tuples, c0: &Tuples, mask: &Tuples, w: usize) -> Case {
        // A: N × N with the trap row; B: N × w with B(0..4, 0) = 1 so
        // T(0, 0) folds the trap
        let mut at: Vec<_> = TRAP.iter().enumerate().map(|(k, &v)| (0, k, v)).collect();
        at.extend(
            a.iter()
                .filter(|t| t.0 != 0)
                .map(|&(i, j, c)| (i, j % N, fval(c))),
        );
        at.sort_by_key(|&(i, j, _)| (i, j));
        at.dedup_by_key(|t| (t.0, t.1));
        let mut bt: Vec<_> = (0..TRAP.len()).map(|k| (k, 0, 1.0)).collect();
        bt.extend(
            b.iter()
                .filter(|&&(i, j, _)| j < w && !(j == 0 && i < TRAP.len()))
                .map(|&(i, j, c)| (i, j, fval(c))),
        );
        let ct: Vec<_> = c0
            .iter()
            .filter(|t| t.1 < w)
            .map(|&(i, j, c)| (i, j, fval(c)))
            .collect();
        let mt: Vec<_> = mask
            .iter()
            .filter(|t| t.1 < w)
            .map(|&(i, j, c)| (i, j, c % 2 == 0))
            .collect();
        Case {
            w,
            a: Matrix::from_tuples(N, N, &at).unwrap(),
            b: Matrix::from_tuples(N, w, &bt).unwrap(),
            mask: Matrix::from_tuples(N, w, &mt).unwrap(),
            dense_a: dense(N, N, &at),
            dense_b: dense(N, w, &bt),
            dense_c0: dense(N, w, &ct),
            dense_mask: dense(N, w, &mt),
        }
    }

    /// The eWise operands: `B` and `B` shifted down one row with `A`'s
    /// first `w` columns added in, so the patterns overlap only partly.
    fn ewise_operands(&self) -> (Matrix<f64>, Dense<f64>) {
        let mut t: Vec<_> = self
            .b
            .extract_tuples()
            .unwrap()
            .into_iter()
            .filter(|t| t.0 + 1 < N)
            .map(|(i, j, v)| (i + 1, j, v))
            .collect();
        t.extend(
            self.a
                .extract_tuples()
                .unwrap()
                .into_iter()
                .filter(|t| t.1 < self.w),
        );
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|t| (t.0, t.1));
        (
            Matrix::from_tuples(N, self.w, &t).unwrap(),
            dense(N, self.w, &t),
        )
    }

    /// The old output filled to `fill` around `t`, the internal result of
    /// the operation: every stored position of `t` gets a value derived
    /// from it where the draw left one undefined, or every position does.
    fn filled_c0(&self, fill: MatFill, t: &Dense<f64>) -> Dense<f64> {
        let mut c = self.dense_c0.clone();
        for (i, row) in c.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                if fill == MatFill::Full || (fill == MatFill::CoversT && t[i][j].is_some()) {
                    x.get_or_insert(fval(((i * 65 + j) * 37 % 251) as u8));
                }
            }
        }
        c
    }

    /// The core library's answer in `ctx`'s mode, writing into an output
    /// that starts as `c0`; with `shared`, a `dup` of the old output is
    /// alive during the call and must still read `c0` after it.
    #[allow(clippy::too_many_arguments)]
    fn core(
        &self,
        ctx: &Context,
        op: Op,
        y: &Matrix<f64>,
        c0: &Dense<f64>,
        shared: bool,
        mask: Option<(bool, bool)>,
        accum: bool,
        replace: bool,
    ) -> Dense<f64> {
        let c = Matrix::from_tuples(N, self.w, &stored(c0)).unwrap();
        let dup = shared.then(|| c.dup());
        let desc = descriptor(mask, replace);
        // ⊙ = −, so swapped accumulator operands cannot go unseen
        let minus = Accum(Minus::<f64>::new());
        match (mask.is_some(), accum) {
            (false, false) => self.run(ctx, op, &c, NoMask, NoAccum, y, &desc),
            (false, true) => self.run(ctx, op, &c, NoMask, minus, y, &desc),
            (true, false) => self.run(ctx, op, &c, &self.mask, NoAccum, y, &desc),
            (true, true) => self.run(ctx, op, &c, &self.mask, minus, y, &desc),
        }
        ctx.wait().unwrap();
        if let Some(dup) = dup {
            let old = dense(N, self.w, &dup.extract_tuples().unwrap());
            assert_eq!(
                bits(&old),
                bits(c0),
                "the write reached a dup of the output"
            );
        }
        dense(N, self.w, &c.extract_tuples().unwrap())
    }

    #[allow(clippy::too_many_arguments)]
    fn run<Mk: MatrixMask, Ac: Accumulate<f64>>(
        &self,
        ctx: &Context,
        op: Op,
        c: &Matrix<f64>,
        mask: Mk,
        accum: Ac,
        y: &Matrix<f64>,
        desc: &Descriptor,
    ) {
        match op {
            Op::Mxm => ctx.mxm(c, mask, accum, plus_times::<f64>(), &self.a, &self.b, desc),
            Op::EwiseAdd => ctx.ewise_add_matrix(c, mask, accum, Plus::new(), &self.b, y, desc),
            Op::EwiseMult => ctx.ewise_mult_matrix(c, mask, accum, Times::new(), &self.b, y, desc),
        }
        .unwrap();
    }

    /// The oracle's internal result **T** of `op`.
    fn oracle_t(&self, op: Op, y: &Dense<f64>) -> Dense<f64> {
        match op {
            Op::Mxm => fig2::mxm(&self.dense_a, &self.dense_b, plus, times),
            Op::EwiseAdd => fig2::ewise_add(&self.dense_b, y, plus),
            Op::EwiseMult => fig2::ewise_mult(&self.dense_b, y, times),
        }
    }

    /// The oracle's answer: `t` written into `c0`.
    fn oracle(
        &self,
        t: &Dense<f64>,
        c0: &Dense<f64>,
        mask: Option<(bool, bool)>,
        accum: bool,
        replace: bool,
    ) -> Dense<f64> {
        let mask = mask.map(|(structural, complement)| Mask {
            source: &self.dense_mask,
            structural,
            complement,
        });
        let accum = accum.then_some(&minus as &fig2::Accumulator<f64>);
        fig2::write(c0, t, accum, mask, replace)
    }
}

/// The stored entries of a dense matrix, row-major.
fn stored(d: &Dense<f64>) -> Vec<(usize, usize, f64)> {
    let entries = d.iter().enumerate().flat_map(|(i, row)| {
        let cols = row.iter().enumerate();
        cols.filter_map(move |(j, x)| x.map(|x| (i, j, x)))
    });
    entries.collect()
}

/// How much a matrix case's old output stores: what was drawn, that
/// plus every position of **T** (pattern(T) ⊆ pattern(C), the write
/// stage's in-place accumulate), or every position.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MatFill {
    Drawn,
    CoversT,
    Full,
}

/// The descriptor of one mask form (`(structural, complement)`, `None`
/// for no mask) and replace setting.
fn descriptor(mask: Option<(bool, bool)>, replace: bool) -> Descriptor {
    let mut desc = Descriptor::default();
    if let Some((structural, complement)) = mask {
        if structural {
            desc = desc.structural_mask();
        }
        if complement {
            desc = desc.complement_mask();
        }
    }
    if replace {
        desc = desc.replace();
    }
    desc
}

fn bits(d: &Dense<f64>) -> Vec<Vec<Option<u64>>> {
    d.iter()
        .map(|r| r.iter().map(|v| v.map(f64::to_bits)).collect())
        .collect()
}

/// Vector sizes: one element, and both sides of a 64-bit word.
const SIZES: [usize; 4] = [1, 63, 64, 65];

/// An owned index selection of a vector case.
#[derive(Debug, Clone)]
enum Sel {
    All,
    Range(usize, usize),
    List(Vec<usize>),
}

impl Sel {
    fn core(&self) -> IndexSelection<'_> {
        match self {
            Sel::All => ALL,
            Sel::Range(lo, hi) => IndexSelection::Range(*lo, *hi),
            Sel::List(l) => IndexSelection::List(l),
        }
    }

    /// The indices selected out of `0..n`, in selection order.
    fn indices(&self, n: usize) -> Vec<usize> {
        match self {
            Sel::All => (0..n).collect(),
            Sel::Range(lo, hi) => (*lo..*hi).collect(),
            Sel::List(l) => l.clone(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum VecOp {
    Extract,
    Assign,
    AssignScalar,
}

/// The selections of one vector case over `0..n`, derived from the
/// strategy's raw draws: ALL, a non-empty range, a list with repeats
/// (extract only; assign rejects them) and a permutation — of all of
/// `0..n` for extract; for assign, a random-length prefix of one
/// (distinct indices in random order).
fn selections(op: VecOp, n: usize, raw: &[usize], seed: u64) -> Vec<Sel> {
    let lo = raw[0] % n;
    let hi = lo + 1 + raw[raw.len() - 1] % (n - lo);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut sels = vec![Sel::All, Sel::Range(lo, hi)];
    match op {
        VecOp::Extract => {
            sels.push(Sel::List(raw.iter().map(|r| r % n).collect()));
            sels.push(Sel::List(perm));
        }
        VecOp::Assign | VecOp::AssignScalar => {
            perm.truncate(1 + raw[1 % raw.len()] % n);
            sels.push(Sel::List(perm));
        }
    }
    sels
}

/// The entries of `t` below `n`, the first one per index, as the
/// vector's `(index, value)` payload and its dense form.
fn vector_of<T: Clone>(n: usize, t: &[(usize, T)]) -> (Vec<(usize, T)>, Vec<Option<T>>) {
    let mut t: Vec<_> = t.iter().filter(|e| e.0 < n).cloned().collect();
    t.sort_by_key(|e| e.0);
    t.dedup_by_key(|e| e.0);
    let mut d = vec![None; n];
    for (i, v) in &t {
        d[*i] = Some(v.clone());
    }
    (t, d)
}

/// How much of `0..n` a vector operand stores: what was drawn, every
/// index but one, or all of them. A full vector takes the kernels'
/// positional branches; one short of full must not.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fill {
    Drawn,
    AllButOne,
    All,
}

const FILLS: [Fill; 3] = [Fill::Drawn, Fill::AllButOne, Fill::All];

/// [`vector_of`] with `fill` applied: each index `t` leaves undefined
/// takes a value derived from it, then `AllButOne` drops `skip % n`.
fn filled(
    n: usize,
    t: &[(usize, f64)],
    fill: Fill,
    skip: usize,
) -> (Vec<(usize, f64)>, Vec<Option<f64>>) {
    let mut d = vector_of(n, t).1;
    if fill != Fill::Drawn {
        for (i, x) in d.iter_mut().enumerate() {
            x.get_or_insert(fval((i * 37 % 251) as u8));
        }
    }
    if fill == Fill::AllButOne {
        d[skip % n] = None;
    }
    let t = d
        .iter()
        .enumerate()
        .filter_map(|(i, x)| x.map(|x| (i, x)))
        .collect();
    (t, d)
}

/// Decoded `(index, value)` pairs of a vector's tuples.
fn decode(t: &Tuples) -> Vec<(usize, f64)> {
    t.iter().map(|e| (e.0, fval(e.2))).collect()
}

/// The raw inputs of one vector case: a source `u` of size `n` for
/// extract; the output starts as `c0` and the mask is `mask`, both cut
/// to the output's size (`len(sel)` for extract, `n` for assign). `u`
/// and `c0` are filled to `fills`, with `skip` the index `AllButOne`
/// leaves out.
struct VecCase<'a> {
    n: usize,
    u: &'a Tuples,
    c0: &'a Tuples,
    mask: &'a Tuples,
    fills: (Fill, Fill),
    skip: usize,
}

/// The source operand of a core call: a vector and assign's scalar.
struct Source {
    u: Vector<f64>,
    scalar: f64,
}

impl Source {
    fn run<Mk: VectorMask, Ac: Accumulate<f64>>(
        &self,
        op: VecOp,
        w: &Vector<f64>,
        mask: Mk,
        accum: Ac,
        sel: IndexSelection<'_>,
        desc: &Descriptor,
    ) {
        let ctx = Context::blocking();
        match op {
            VecOp::Extract => ctx.extract_vector(w, mask, accum, &self.u, sel, desc),
            VecOp::Assign => ctx.assign_vector(w, mask, accum, &self.u, sel, desc),
            VecOp::AssignScalar => ctx.assign_scalar_vector(w, mask, accum, self.scalar, sel, desc),
        }
        .unwrap();
    }
}

impl VecCase<'_> {
    /// `op` over `sel` under one mask form, accumulator and replace
    /// setting: the core library's answer and the oracle's.
    fn check(
        &self,
        op: VecOp,
        sel: &Sel,
        m: Option<(bool, bool)>,
        accum: bool,
        replace: bool,
    ) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        let idx = sel.indices(self.n);
        let (src_n, out_n) = match op {
            VecOp::Extract => (self.n, idx.len()),
            VecOp::Assign | VecOp::AssignScalar => (idx.len(), self.n),
        };
        let (ut, du) = filled(src_n, &decode(self.u), self.fills.0, self.skip);
        let (ct, dc) = filled(out_n, &decode(self.c0), self.fills.1, self.skip);
        let mt: Vec<(usize, bool)> = self.mask.iter().map(|e| (e.0, e.2 % 2 == 0)).collect();
        let (mt, dm) = vector_of(out_n, &mt);

        // the core library
        let src = Source {
            u: Vector::from_tuples(src_n, &ut).unwrap(),
            scalar: fval(self.u.first().map_or(7, |e| e.2)),
        };
        let w = Vector::from_tuples(out_n, &ct).unwrap();
        let mv = Vector::from_tuples(out_n, &mt).unwrap();
        let desc = descriptor(m, replace);
        let plus = Accum(Plus::<f64>::new());
        let s = sel.core();
        match (m.is_some(), accum) {
            (false, false) => src.run(op, &w, NoMask, NoAccum, s, &desc),
            (false, true) => src.run(op, &w, NoMask, plus, s, &desc),
            (true, false) => src.run(op, &w, &mv, NoAccum, s, &desc),
            (true, true) => src.run(op, &w, &mv, plus, s, &desc),
        }
        let got = vector_of(out_n, &w.extract_tuples().unwrap()).1;

        // the oracle
        let add = |x: &f64, y: &f64| x + y;
        let acc = accum.then_some(&add as &dyn Fn(&f64, &f64) -> f64);
        let msrc = vec![dm];
        let mask = m.map(|(structural, complement)| Mask {
            source: &msrc,
            structural,
            complement,
        });
        let c = vec![dc];
        let want = match op {
            VecOp::Extract => fig2::write(&c, &vec![fig2::extract(&du, &idx)], acc, mask, replace),
            VecOp::Assign => {
                let z = fig2::assign(&c[0], &du, &idx, acc);
                fig2::write(&c, &vec![z], None, mask, replace)
            }
            VecOp::AssignScalar => {
                let z = fig2::assign(&c[0], &vec![Some(src.scalar); idx.len()], &idx, acc);
                fig2::write(&c, &vec![z], None, mask, replace)
            }
        };
        (got, want.into_iter().next().unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_ops_match_the_fig2_oracle_bitwise(
        a in tuples(N, N, 64),
        b in tuples(N, 65, 96),
        c0 in tuples(N, 65, 64),
        mask in mask_tuples(N, 65),
        wi in 0usize..3,
    ) {
        let case = Case::new(&a, &b, &c0, &mask, THIN[wi]);
        let (y, dense_y) = case.ewise_operands();
        // an accumulate may run in the old output's own storage: run it
        // in both modes, with and without a `dup` sharing that storage
        let ctxs = common::contexts();
        let runs = |accum: bool| -> Vec<(&Context, bool)> {
            match accum {
                false => vec![(&ctxs[0], false)],
                true => ctxs.iter().flat_map(|ctx| [(ctx, false), (ctx, true)]).collect(),
            }
        };
        par::with_cost_model(1, 0, || {
            for op in [Op::Mxm, Op::EwiseAdd, Op::EwiseMult] {
                let t = case.oracle_t(op, &dense_y);
                for fill in [MatFill::Drawn, MatFill::CoversT, MatFill::Full] {
                    let c0 = case.filled_c0(fill, &t);
                    for m in MASKS {
                        for accum in [false, true] {
                            for replace in [false, true] {
                                let want = case.oracle(&t, &c0, m, accum, replace);
                                for (ctx, shared) in runs(accum) {
                                    let got = case.core(ctx, op, &y, &c0, shared, m, accum, replace);
                                    prop_assert_eq!(
                                        bits(&got), bits(&want),
                                        "{:?} w={} fill={:?} {:?} shared={} mask={:?} accum={} replace={}",
                                        op, case.w, fill, ctx.mode(), shared, m, accum, replace
                                    );
                                }
                            }
                        }
                    }
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vector_extract_and_assign_match_the_fig2_oracle_bitwise(
        ni in 0usize..4,
        u in tuples(65, 1, 48),
        c0 in tuples(65, 1, 48),
        mask in mask_tuples(65, 1),
        raw in proptest::collection::vec(0usize..1000, 1..=70),
        seed in any::<u64>(),
        skip in 0usize..65,
    ) {
        let n = SIZES[ni];
        par::with_cost_model(1, 0, || {
            for op in [VecOp::Extract, VecOp::Assign, VecOp::AssignScalar] {
                // extract gathers from a full `u` by position, and its
                // accumulate folds into a full `c0` by position
                let fills: Vec<(Fill, Fill)> = match op {
                    VecOp::Extract => FILLS.iter().flat_map(|&f| FILLS.map(|g| (f, g))).collect(),
                    VecOp::Assign | VecOp::AssignScalar => vec![(Fill::Drawn, Fill::Drawn)],
                };
                for fills in fills {
                    let case = VecCase { n, u: &u, c0: &c0, mask: &mask, fills, skip };
                    for sel in selections(op, n, &raw, seed) {
                        for m in MASKS {
                            for accum in [false, true] {
                                for replace in [false, true] {
                                    let (got, want) = case.check(op, &sel, m, accum, replace);
                                    prop_assert_eq!(
                                        vbits(&got), vbits(&want),
                                        "{:?} n={} fills={:?} sel={:?} mask={:?} accum={} replace={}",
                                        op, n, fills, sel, m, accum, replace
                                    );
                                }
                            }
                        }
                    }
                }
            }
        });
    }
}

fn vbits(d: &[Option<f64>]) -> Vec<Option<u64>> {
    d.iter().map(|v| v.map(f64::to_bits)).collect()
}

#[derive(Debug, Clone, Copy)]
enum MvOp {
    Mxv,
    Vxm,
}

/// One `mxv`/`vxm` case at size `n`: `A` is `n × n` with the trap in row
/// 0 and column 0 (so `u(0..4) = 1`), `u`, the old output and the mask
/// are vectors of size `n`; `u` and the old output are filled to `fills`.
struct MvCase {
    n: usize,
    a: Vec<(usize, usize, f64)>,
    u: Vec<(usize, f64)>,
    c0: Vec<(usize, f64)>,
    mask: Vec<(usize, bool)>,
}

impl MvCase {
    fn new(
        n: usize,
        a: &Tuples,
        u: &Tuples,
        c0: &Tuples,
        mask: &Tuples,
        fills: (Fill, Fill),
        skip: usize,
    ) -> MvCase {
        let trap = TRAP.len().min(n);
        let mut at: Vec<_> = (0..trap)
            .flat_map(|k| [(0, k, TRAP[k]), (k, 0, TRAP[k])])
            .collect();
        at.extend(
            a.iter()
                .filter(|&&(i, j, _)| i < n && j < n && i != 0 && j != 0)
                .map(|&(i, j, c)| (i, j, fval(c))),
        );
        at.sort_by_key(|&(i, j, _)| (i, j));
        at.dedup_by_key(|t| (t.0, t.1));
        let mut ut: Vec<_> = (0..trap).map(|k| (k, 1.0)).collect();
        ut.extend(u.iter().map(|e| (e.0, fval(e.2))));
        let mt: Vec<(usize, bool)> = mask.iter().map(|e| (e.0, e.2 % 2 == 0)).collect();
        let (uf, cf) = fills;
        MvCase {
            n,
            a: at,
            u: filled(n, &ut, uf, skip).0,
            c0: filled(n, &decode(c0), cf, skip).0,
            mask: vector_of(n, &mt).0,
        }
    }

    /// The core library's answer with `A` stored as `a`.
    fn core(
        &self,
        op: MvOp,
        a: &Matrix<f64>,
        tran: bool,
        m: Option<(bool, bool)>,
        accum: bool,
        replace: bool,
    ) -> Vec<Option<f64>> {
        let u = Vector::from_tuples(self.n, &self.u).unwrap();
        let w = Vector::from_tuples(self.n, &self.c0).unwrap();
        let mv = Vector::from_tuples(self.n, &self.mask).unwrap();
        let mut desc = descriptor(m, replace);
        if tran {
            desc = match op {
                MvOp::Mxv => desc.transpose_first(),
                MvOp::Vxm => desc.transpose_second(),
            };
        }
        let plus = Accum(Plus::<f64>::new());
        match (m.is_some(), accum) {
            (false, false) => mv_run(op, &w, NoMask, NoAccum, a, &u, &desc),
            (false, true) => mv_run(op, &w, NoMask, plus, a, &u, &desc),
            (true, false) => mv_run(op, &w, &mv, NoAccum, a, &u, &desc),
            (true, true) => mv_run(op, &w, &mv, plus, a, &u, &desc),
        }
        vector_of(self.n, &w.extract_tuples().unwrap()).1
    }

    /// The oracle's answer.
    fn oracle(
        &self,
        op: MvOp,
        tran: bool,
        m: Option<(bool, bool)>,
        accum: bool,
        replace: bool,
    ) -> Vec<Option<f64>> {
        let mut da = fig2::empty(self.n, self.n);
        for &(i, j, v) in &self.a {
            let (i, j) = if tran { (j, i) } else { (i, j) };
            da[i][j] = Some(v);
        }
        let du = vector_of(self.n, &self.u).1;
        let add = |x: &f64, y: &f64| x + y;
        let mul = |x: &f64, y: &f64| x * y;
        let t = match op {
            MvOp::Mxv => fig2::mxv(&da, &du, add, mul),
            MvOp::Vxm => fig2::vxm(&du, &da, add, mul),
        };
        let msrc = vec![vector_of(self.n, &self.mask).1];
        let mask = m.map(|(structural, complement)| Mask {
            source: &msrc,
            structural,
            complement,
        });
        let acc = accum.then_some(&add as &dyn Fn(&f64, &f64) -> f64);
        let c = vec![vector_of(self.n, &self.c0).1];
        fig2::write(&c, &vec![t], acc, mask, replace).pop().unwrap()
    }
}

fn mv_run<Mk: VectorMask, Ac: Accumulate<f64>>(
    op: MvOp,
    w: &Vector<f64>,
    mask: Mk,
    accum: Ac,
    a: &Matrix<f64>,
    u: &Vector<f64>,
    desc: &Descriptor,
) {
    let ctx = Context::blocking();
    match op {
        MvOp::Mxv => ctx.mxv(w, mask, accum, plus_times::<f64>(), a, u, desc),
        MvOp::Vxm => ctx.vxm(w, mask, accum, plus_times::<f64>(), u, a, desc),
    }
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The direction override is process-wide; no other test in this
    /// binary runs an SpMSpV product, so no lock is needed.
    #[test]
    fn mxv_and_vxm_match_the_fig2_oracle_bitwise(
        ni in 0usize..4,
        a in tuples(65, 65, 400),
        u in tuples(65, 1, 48),
        c0 in tuples(65, 1, 48),
        mask in mask_tuples(65, 1),
        ui in 0usize..3,
        skip in 0usize..65,
    ) {
        par::with_cost_model(1, 0, || {
            // the accumulate folds into a full old output by position
            for cf in FILLS {
                let fills = (FILLS[ui], cf);
                let case = MvCase::new(SIZES[ni], &a, &u, &c0, &mask, fills, skip);
                for grid in [None, Some((4, 4))] {
                    let am = Matrix::from_tuples(case.n, case.n, &case.a).unwrap();
                    if let Some((r, c)) = grid {
                        am.set_tile_shape(r, c).unwrap();
                    }
                    for d in [Direction::Push, Direction::Pull, Direction::Dense] {
                        for op in [MvOp::Mxv, MvOp::Vxm] {
                            for tran in [false, true] {
                                for m in MASKS {
                                    for accum in [false, true] {
                                        for replace in [false, true] {
                                            let got = spmspv::with_direction(d, || {
                                                case.core(op, &am, tran, m, accum, replace)
                                            });
                                            let want = case.oracle(op, tran, m, accum, replace);
                                            prop_assert_eq!(
                                                vbits(&got), vbits(&want),
                                                "{:?} n={} fills={:?} {:?} {:?} tran={} mask={:?} accum={} replace={}",
                                                op, case.n, fills, grid, d, tran, m, accum, replace
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
    }
}

#[derive(Debug, Clone, Copy)]
enum EwOp {
    Add,
    Mult,
}

fn ew_run<Mk: VectorMask, Ac: Accumulate<f64>>(
    op: EwOp,
    w: &Vector<f64>,
    mask: Mk,
    accum: Ac,
    u: &Vector<f64>,
    v: &Vector<f64>,
    desc: &Descriptor,
) {
    let ctx = Context::blocking();
    match op {
        EwOp::Add => ctx.ewise_add_vector(w, mask, accum, Minus::new(), u, v, desc),
        EwOp::Mult => ctx.ewise_mult_vector(w, mask, accum, Minus::new(), u, v, desc),
    }
    .unwrap();
}

/// One vector `eWise` case at size `n`: the operands `u` and `v`, the
/// old output `c0` and the mask source, as `(index, value)` pairs.
struct EwCase {
    n: usize,
    u: Vec<(usize, f64)>,
    v: Vec<(usize, f64)>,
    c0: Vec<(usize, f64)>,
    mask: Vec<(usize, bool)>,
}

impl EwCase {
    /// The core library's answer and the oracle's. `⊕`, `⊗` and the
    /// accumulator are all `Minus`, so an operand swap shows.
    fn check(
        &self,
        op: EwOp,
        m: Option<(bool, bool)>,
        accum: bool,
        replace: bool,
    ) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        let n = self.n;
        let vector = |t: &[(usize, f64)]| Vector::from_tuples(n, t).unwrap();
        let (u, v, w) = (vector(&self.u), vector(&self.v), vector(&self.c0));
        let mv = Vector::from_tuples(n, &self.mask).unwrap();
        let desc = descriptor(m, replace);
        let minus = Accum(Minus::<f64>::new());
        match (m.is_some(), accum) {
            (false, false) => ew_run(op, &w, NoMask, NoAccum, &u, &v, &desc),
            (false, true) => ew_run(op, &w, NoMask, minus, &u, &v, &desc),
            (true, false) => ew_run(op, &w, &mv, NoAccum, &u, &v, &desc),
            (true, true) => ew_run(op, &w, &mv, minus, &u, &v, &desc),
        }
        let got = vector_of(n, &w.extract_tuples().unwrap()).1;

        let minus = |x: &f64, y: &f64| x - y;
        let dense = |t: &[(usize, f64)]| vec![vector_of(n, t).1];
        let (du, dv) = (dense(&self.u), dense(&self.v));
        let t = match op {
            EwOp::Add => fig2::ewise_add(&du, &dv, minus),
            EwOp::Mult => fig2::ewise_mult(&du, &dv, minus),
        };
        let msrc = vec![vector_of(n, &self.mask).1];
        let mask = m.map(|(structural, complement)| Mask {
            source: &msrc,
            structural,
            complement,
        });
        let acc = accum.then_some(&minus as &dyn Fn(&f64, &f64) -> f64);
        let want = fig2::write(&dense(&self.c0), &t, acc, mask, replace);
        (got, want.into_iter().next().unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Vector `eWiseAdd` and `eWiseMult` with `u`, `v` and the old output
    /// each drawn, one short of full, or full.
    #[test]
    fn vector_ewise_matches_the_fig2_oracle_bitwise(
        ni in 0usize..4,
        u in tuples(65, 1, 48),
        v in tuples(65, 1, 48),
        c0 in tuples(65, 1, 48),
        mask in mask_tuples(65, 1),
        skip in 0usize..65,
    ) {
        let n = SIZES[ni];
        let mt: Vec<(usize, bool)> = mask.iter().map(|e| (e.0, e.2 % 2 == 0)).collect();
        let fills = FILLS
            .iter()
            .flat_map(|&f| FILLS.iter().flat_map(move |&g| FILLS.map(|h| (f, g, h))));
        par::with_cost_model(1, 0, || {
            for fills in fills {
                let case = EwCase {
                    n,
                    u: filled(n, &decode(&u), fills.0, skip).0,
                    v: filled(n, &decode(&v), fills.1, skip).0,
                    c0: filled(n, &decode(&c0), fills.2, skip).0,
                    mask: vector_of(n, &mt).0,
                };
                for op in [EwOp::Add, EwOp::Mult] {
                    for m in MASKS {
                        for accum in [false, true] {
                            for replace in [false, true] {
                                let (got, want) = case.check(op, m, accum, replace);
                                prop_assert_eq!(
                                    vbits(&got), vbits(&want),
                                    "{:?} n={} fills={:?} mask={:?} accum={} replace={}",
                                    op, n, fills, m, accum, replace
                                );
                            }
                        }
                    }
                }
            }
        });
    }
}

/// A matrix program whose output `C` is also an input, or only the
/// write mask (`Mxm`, run under the output's own mask).
#[derive(Debug, Clone, Copy, PartialEq)]
enum MatAlias {
    /// `C ⊙= C ⊕.⊗ B`
    MxmInput,
    /// `C ⊙= A ⊕.⊗ B`
    Mxm,
    /// `C ⊙= C − B` (eWiseAdd under `Minus`)
    EwiseAddInput,
    /// `C ⊙= C − B` (eWiseMult under `Minus`)
    EwiseMultInput,
}

/// A vector program whose output `w` is also an input, or only the write
/// mask (`ExtractU`, `AssignU`). Selections have length `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VecAlias {
    /// `w ⊙= w − u` (eWiseAdd under `Minus`)
    EwiseAddInput,
    /// `w ⊙= w − u` (eWiseMult under `Minus`)
    EwiseMultInput,
    /// `w ⊙= A ⊕.⊗ w`
    MxvInput,
    /// `w ⊙= wᵀ ⊕.⊗ A`
    VxmInput,
    /// `w ⊙= w(sel)`
    ExtractInput,
    /// `w ⊙= u(sel)`
    ExtractU,
    /// `w(sel) ⊙= w`
    AssignInput,
    /// `w(sel) ⊙= u`
    AssignU,
}

/// One configuration of an aliasing case: the mask is a separate object
/// or the output itself (`own`), in one masked form `m`.
#[derive(Debug, Clone, Copy)]
struct Cfg {
    own: bool,
    m: Option<(bool, bool)>,
    accum: bool,
    replace: bool,
}

impl Cfg {
    /// A separate mask in every form, or the output's own mask in every
    /// masked form; with and without an accumulator; merge and replace.
    fn all() -> Vec<Cfg> {
        let masks = [false, true]
            .into_iter()
            .flat_map(|own| MASKS.into_iter().map(move |m| (own, m)))
            .filter(|&(own, m)| !own || m.is_some());
        masks
            .flat_map(|(own, m)| {
                [(false, false), (false, true), (true, false), (true, true)].map(
                    |(accum, replace)| Cfg {
                        own,
                        m,
                        accum,
                        replace,
                    },
                )
            })
            .collect()
    }

    /// The oracle's mask over `separate`, or over the output's old value
    /// `c` cast to Boolean (nonzero is true) when the mask is the output.
    fn mask_source(&self, separate: Dense<bool>, c: &Dense<f64>) -> Dense<bool> {
        if !self.own {
            return separate;
        }
        c.iter()
            .map(|r| r.iter().map(|v| v.map(|x| x != 0.0)).collect())
            .collect()
    }

    fn oracle_mask<'a>(&self, source: &'a Dense<bool>) -> Option<Mask<'a>> {
        self.m.map(|(structural, complement)| Mask {
            source,
            structural,
            complement,
        })
    }

    fn oracle_accum(&self) -> Option<&'static fig2::Accumulator<f64>> {
        self.accum.then_some(&plus)
    }
}

fn plus(x: &f64, y: &f64) -> f64 {
    x + y
}

fn times(x: &f64, y: &f64) -> f64 {
    x * y
}

fn minus(x: &f64, y: &f64) -> f64 {
    x - y
}

/// Run `$call` with `$mask` bound to the configuration's mask argument:
/// none, the separate mask `$separate`, or the output `$out`.
macro_rules! under_mask {
    ($cfg:expr, $separate:expr, $out:expr, |$mask:ident| $call:expr) => {
        match ($cfg.m, $cfg.own) {
            (None, _) => {
                let $mask = NoMask;
                $call
            }
            (Some(_), false) => {
                let $mask = $separate;
                $call
            }
            (Some(_), true) => {
                let $mask = $out;
                $call
            }
        }
    };
}

/// The decoded draws of one aliasing case at size `n`.
struct AliasCase {
    n: usize,
    a: Vec<(usize, usize, f64)>,
    b: Vec<(usize, usize, f64)>,
    c0: Vec<(usize, usize, f64)>,
    mask: Vec<(usize, usize, bool)>,
    u: Vec<(usize, f64)>,
    w0: Vec<(usize, f64)>,
    wmask: Vec<(usize, bool)>,
}

impl AliasCase {
    /// A matrix program: the core library's answer in `ctx`'s mode, and
    /// the oracle's, fed the old output wherever the program reads it.
    fn matrix(&self, ctx: &Context, op: MatAlias, cfg: Cfg) -> (Dense<f64>, Dense<f64>) {
        let n = self.n;
        let mat = |t: &[(usize, usize, f64)]| Matrix::from_tuples(n, n, t).unwrap();
        let (a, b, c) = (mat(&self.a), mat(&self.b), mat(&self.c0));
        let mm = Matrix::from_tuples(n, n, &self.mask).unwrap();
        let (acc, d, pt) = (
            cfg.accum.then(Plus::new),
            descriptor(cfg.m, cfg.replace),
            plus_times(),
        );
        under_mask!(cfg, &mm, &c, |mk| match op {
            MatAlias::MxmInput => ctx.mxm(&c, mk, acc, pt, &c, &b, &d),
            MatAlias::Mxm => ctx.mxm(&c, mk, acc, pt, &a, &b, &d),
            MatAlias::EwiseAddInput => ctx.ewise_add_matrix(&c, mk, acc, Minus::new(), &c, &b, &d),
            MatAlias::EwiseMultInput =>
                ctx.ewise_mult_matrix(&c, mk, acc, Minus::new(), &c, &b, &d),
        })
        .unwrap();
        ctx.wait().unwrap();
        let got = dense(n, n, &c.extract_tuples().unwrap());

        let (da, db, dc) = (
            dense(n, n, &self.a),
            dense(n, n, &self.b),
            dense(n, n, &self.c0),
        );
        let t = match op {
            MatAlias::MxmInput => fig2::mxm(&dc, &db, plus, times),
            MatAlias::Mxm => fig2::mxm(&da, &db, plus, times),
            MatAlias::EwiseAddInput => fig2::ewise_add(&dc, &db, minus),
            MatAlias::EwiseMultInput => fig2::ewise_mult(&dc, &db, minus),
        };
        let src = cfg.mask_source(dense(n, n, &self.mask), &dc);
        let want = fig2::write(
            &dc,
            &t,
            cfg.oracle_accum(),
            cfg.oracle_mask(&src),
            cfg.replace,
        );
        (got, want)
    }

    /// A vector program over `sel`: the core library's answer and the
    /// oracle's.
    fn vector(
        &self,
        ctx: &Context,
        op: VecAlias,
        sel: &Sel,
        cfg: Cfg,
    ) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        let n = self.n;
        let vector = |t: &[(usize, f64)]| Vector::from_tuples(n, t).unwrap();
        let (u, w) = (vector(&self.u), vector(&self.w0));
        let a = Matrix::from_tuples(n, n, &self.a).unwrap();
        let mv = Vector::from_tuples(n, &self.wmask).unwrap();
        let (acc, d, pt, s) = (
            cfg.accum.then(Plus::new),
            descriptor(cfg.m, cfg.replace),
            plus_times(),
            sel.core(),
        );
        under_mask!(cfg, &mv, &w, |mk| match op {
            VecAlias::EwiseAddInput => ctx.ewise_add_vector(&w, mk, acc, Minus::new(), &w, &u, &d),
            VecAlias::EwiseMultInput =>
                ctx.ewise_mult_vector(&w, mk, acc, Minus::new(), &w, &u, &d),
            VecAlias::MxvInput => ctx.mxv(&w, mk, acc, pt, &a, &w, &d),
            VecAlias::VxmInput => ctx.vxm(&w, mk, acc, pt, &w, &a, &d),
            VecAlias::ExtractInput => ctx.extract_vector(&w, mk, acc, &w, s, &d),
            VecAlias::ExtractU => ctx.extract_vector(&w, mk, acc, &u, s, &d),
            VecAlias::AssignInput => ctx.assign_vector(&w, mk, acc, &w, s, &d),
            VecAlias::AssignU => ctx.assign_vector(&w, mk, acc, &u, s, &d),
        })
        .unwrap();
        ctx.wait().unwrap();
        let got = vector_of(n, &w.extract_tuples().unwrap()).1;

        let (da, du, dw) = (
            dense(n, n, &self.a),
            vector_of(n, &self.u).1,
            vector_of(n, &self.w0).1,
        );
        let (idx, acc) = (sel.indices(n), cfg.oracle_accum());
        let (rw, ru) = (vec![dw.clone()], vec![du.clone()]);
        // assign's Z already holds the accumulation
        let (t, acc) = match op {
            VecAlias::EwiseAddInput => (fig2::ewise_add(&rw, &ru, minus).remove(0), acc),
            VecAlias::EwiseMultInput => (fig2::ewise_mult(&rw, &ru, minus).remove(0), acc),
            VecAlias::MxvInput => (fig2::mxv(&da, &dw, plus, times), acc),
            VecAlias::VxmInput => (fig2::vxm(&dw, &da, plus, times), acc),
            VecAlias::ExtractInput => (fig2::extract(&dw, &idx), acc),
            VecAlias::ExtractU => (fig2::extract(&du, &idx), acc),
            VecAlias::AssignInput => (fig2::assign(&dw, &dw, &idx, acc), None),
            VecAlias::AssignU => (fig2::assign(&dw, &du, &idx, acc), None),
        };
        let c = vec![dw];
        let src = cfg.mask_source(vec![vector_of(n, &self.wmask).1], &c);
        let want = fig2::write(&c, &vec![t], acc, cfg.oracle_mask(&src), cfg.replace);
        (got, want.into_iter().next().unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The output as an input and as the mask, in both modes: `C ⊕= C·B`,
    /// `C<C> = A·B`, matrix and vector eWise with the output as an
    /// operand, `w<w> = A·w`, `w ⊕= wᵀA`, and vector extract/assign with
    /// `w` as the source or the mask. An operation's inputs are snapshots
    /// taken at the call, so the oracle is fed the old output.
    #[test]
    fn aliased_outputs_match_the_fig2_oracle_bitwise(
        a in tuples(ALIAS_N, ALIAS_N, 64),
        b in tuples(ALIAS_N, ALIAS_N, 64),
        c0 in tuples(ALIAS_N, ALIAS_N, 64),
        mask in mask_tuples(ALIAS_N, ALIAS_N),
        u in tuples(ALIAS_N, 1, 12),
        w0 in tuples(ALIAS_N, 1, 12),
        wmask in mask_tuples(ALIAS_N, 1),
        seed in any::<u64>(),
    ) {
        let n = ALIAS_N;
        let f = |t: &Tuples| t.iter().map(|&(i, j, c)| (i, j, fval(c))).collect();
        let case = AliasCase {
            n,
            a: f(&a),
            b: f(&b),
            c0: f(&c0),
            mask: mask.iter().map(|&(i, j, c)| (i, j, c % 2 == 0)).collect(),
            u: decode(&u),
            w0: decode(&w0),
            wmask: wmask.iter().map(|e| (e.0, e.2 % 2 == 0)).collect(),
        };
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&i| (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let sels = [Sel::All, Sel::List(perm)];
        par::with_cost_model(1, 0, || {
            for ctx in common::contexts() {
                for cfg in Cfg::all() {
                    let mat_ops = [MatAlias::MxmInput, MatAlias::Mxm, MatAlias::EwiseAddInput, MatAlias::EwiseMultInput];
                    // a program that reads no output is aliased by its mask alone
                    for op in mat_ops.into_iter().filter(|&op| cfg.own || op != MatAlias::Mxm) {
                        let (got, want) = case.matrix(&ctx, op, cfg);
                        prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?} {:?}", op, ctx.mode(), cfg);
                    }
                    let vec_ops = [
                        VecAlias::EwiseAddInput, VecAlias::EwiseMultInput, VecAlias::MxvInput, VecAlias::VxmInput,
                        VecAlias::ExtractInput, VecAlias::ExtractU, VecAlias::AssignInput, VecAlias::AssignU,
                    ];
                    let reads_output = |op| !matches!(op, VecAlias::ExtractU | VecAlias::AssignU);
                    for op in vec_ops.into_iter().filter(|&op| cfg.own || reads_output(op)) {
                        for sel in &sels {
                            let (got, want) = case.vector(&ctx, op, sel, cfg);
                            prop_assert_eq!(
                                vbits(&got), vbits(&want),
                                "{:?} {:?} sel={:?} {:?}", op, ctx.mode(), sel, cfg
                            );
                        }
                    }
                }
            }
        });
    }
}

/// The size of the aliasing cases.
const ALIAS_N: usize = 12;
