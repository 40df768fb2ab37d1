//! The dynamically-typed C-style facade must agree with the typed core
//! on randomized operation sequences — the two bindings expose one
//! implementation, so any divergence is a facade bug (casting, domain
//! bookkeeping, argument dispatch).
//!
//! The proptest drives random sequences on an INT32 pool, with a mask
//! and an operand in other built-in domains, through the facade in
//! blocking and nonblocking mode; the table test runs every
//! predefined binary operator over every built-in domain's edge values
//! and checks each result against plain Rust.

use graphblas_capi as grb;
use graphblas_capi::{GrbBinaryOp, GrbMatrix, GrbMonoid, GrbSemiring, GrbType, Value};
use graphblas_core::prelude::*;
use proptest::prelude::*;

const N: usize = 4;

#[derive(Debug, Clone)]
enum Step {
    Mxm {
        c: usize,
        a: usize,
        b: usize,
        masked: bool,
        accum: bool,
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
    Transpose {
        c: usize,
        a: usize,
    },
    Fill {
        c: usize,
        v: i8,
    },
    /// `mxm` masked by an FP64 matrix (a mask in another domain).
    MxmForeignMask {
        c: usize,
        a: usize,
        b: usize,
        structural: bool,
    },
    /// `eWiseAdd` of an INT32 operand and an FP64 one, cast to INT32.
    EwiseAddCast {
        c: usize,
        a: usize,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let i = 0usize..3;
    prop_oneof![
        (
            i.clone(),
            i.clone(),
            i.clone(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(c, a, b, masked, accum)| Step::Mxm {
                c,
                a,
                b,
                masked,
                accum
            }),
        (i.clone(), i.clone(), i.clone()).prop_map(|(c, a, b)| Step::EwiseAdd { c, a, b }),
        (i.clone(), i.clone(), i.clone()).prop_map(|(c, a, b)| Step::EwiseMult { c, a, b }),
        (i.clone(), i.clone()).prop_map(|(c, a)| Step::Transpose { c, a }),
        (i.clone(), -3i8..4).prop_map(|(c, v)| Step::Fill { c, v }),
        (i.clone(), i.clone(), i.clone(), any::<bool>()).prop_map(|(c, a, b, structural)| {
            Step::MxmForeignMask {
                c,
                a,
                b,
                structural,
            }
        }),
        (i.clone(), i).prop_map(|(c, a)| Step::EwiseAddCast { c, a }),
    ]
}

type Seeds = Vec<Vec<(usize, usize, i32)>>;

/// The FP64 mask: `seeds[0]` halved, so stored zeros mask out unless
/// the mask is structural.
fn f64_mask(seeds: &Seeds) -> Vec<(usize, usize, f64)> {
    seeds[0]
        .iter()
        .map(|&(i, j, x)| (i, j, x as f64 * 0.5))
        .collect()
}

/// The FP64 operand: `seeds[1]` offset by 0.75, so the cast to INT32
/// truncates toward zero.
fn f64_operand(seeds: &Seeds) -> Vec<(usize, usize, f64)> {
    seeds[1]
        .iter()
        .map(|&(i, j, x)| (i, j, x as f64 + 0.75))
        .collect()
}

fn mask_desc(structural: bool) -> Descriptor {
    if structural {
        Descriptor::default().structural_mask()
    } else {
        Descriptor::default()
    }
}

fn run_typed(seeds: &Seeds, steps: &[Step]) -> Vec<Vec<(usize, usize, i32)>> {
    let ctx = Context::blocking();
    let pool: Vec<Matrix<i32>> = seeds
        .iter()
        .map(|t| Matrix::from_tuples(N, N, t).unwrap())
        .collect();
    let mask = Matrix::from_tuples(N, N, &f64_mask(seeds)).unwrap();
    let cast: Vec<(usize, usize, i32)> = f64_operand(seeds)
        .into_iter()
        .map(|(i, j, x)| (i, j, x as i32))
        .collect();
    let cast = Matrix::from_tuples(N, N, &cast).unwrap();
    let d = Descriptor::default();
    for s in steps {
        match *s {
            Step::Mxm {
                c,
                a,
                b,
                masked,
                accum,
            } => {
                let desc = Descriptor::default().structural_mask();
                match (masked, accum) {
                    (false, false) => ctx.mxm(
                        &pool[c],
                        NoMask,
                        NoAccum,
                        plus_times::<i32>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                    (true, false) => ctx.mxm(
                        &pool[c],
                        &pool[a],
                        NoAccum,
                        plus_times::<i32>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                    (false, true) => ctx.mxm(
                        &pool[c],
                        NoMask,
                        Accum(Plus::<i32>::new()),
                        plus_times::<i32>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                    (true, true) => ctx.mxm(
                        &pool[c],
                        &pool[b],
                        Accum(Plus::<i32>::new()),
                        plus_times::<i32>(),
                        &pool[a],
                        &pool[b],
                        &desc,
                    ),
                }
                .unwrap();
            }
            Step::EwiseAdd { c, a, b } => ctx
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
            Step::EwiseMult { c, a, b } => ctx
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
            Step::Transpose { c, a } => ctx
                .transpose(&pool[c], NoMask, NoAccum, &pool[a], &d)
                .unwrap(),
            Step::Fill { c, v } => ctx
                .assign_scalar_matrix(&pool[c], NoMask, NoAccum, v as i32, ALL, ALL, &d)
                .unwrap(),
            Step::MxmForeignMask {
                c,
                a,
                b,
                structural,
            } => ctx
                .mxm(
                    &pool[c],
                    &mask,
                    NoAccum,
                    plus_times::<i32>(),
                    &pool[a],
                    &pool[b],
                    &mask_desc(structural),
                )
                .unwrap(),
            Step::EwiseAddCast { c, a } => ctx
                .ewise_add_matrix(&pool[c], NoMask, NoAccum, Plus::new(), &pool[a], &cast, &d)
                .unwrap(),
        }
    }
    pool.iter().map(|m| m.extract_tuples().unwrap()).collect()
}

fn run_capi(seeds: &Seeds, steps: &[Step], mode: Mode) -> Vec<Vec<(usize, usize, i32)>> {
    grb::with_session(mode, || {
        let sr = {
            let add = GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0))
                .unwrap();
            GrbSemiring::new(add, GrbBinaryOp::times(GrbType::Int32).unwrap()).unwrap()
        };
        let plus = GrbBinaryOp::plus(GrbType::Int32).unwrap();
        let times = GrbBinaryOp::times(GrbType::Int32).unwrap();
        let pool: Vec<GrbMatrix> = seeds
            .iter()
            .map(|t| {
                let m = GrbMatrix::new(GrbType::Int32, N, N).unwrap();
                let rows: Vec<usize> = t.iter().map(|x| x.0).collect();
                let cols: Vec<usize> = t.iter().map(|x| x.1).collect();
                let vals: Vec<Value> = t.iter().map(|x| Value::Int32(x.2)).collect();
                m.build(&rows, &cols, &vals, &plus).unwrap();
                m
            })
            .collect();
        let f64_matrix = |t: Vec<(usize, usize, f64)>| {
            let m = GrbMatrix::new(GrbType::Fp64, N, N).unwrap();
            for (i, j, x) in t {
                m.set(i, j, Value::Fp64(x)).unwrap();
            }
            m
        };
        let mask = f64_matrix(f64_mask(seeds));
        let cast = f64_matrix(f64_operand(seeds));
        let d = Descriptor::default();
        for s in steps {
            match *s {
                Step::Mxm {
                    c,
                    a,
                    b,
                    masked,
                    accum,
                } => {
                    let desc = Descriptor::default().structural_mask();
                    let mask = if masked { Some(&pool[a]) } else { None };
                    // the second masked variant uses pool[b] as mask
                    let mask = if masked && accum {
                        Some(&pool[b])
                    } else {
                        mask
                    };
                    let acc = accum.then_some(&plus);
                    grb::mxm(&pool[c], mask, acc, &sr, &pool[a], &pool[b], &desc).unwrap();
                }
                Step::EwiseAdd { c, a, b } => {
                    grb::ewise_add_matrix(&pool[c], None, None, &plus, &pool[a], &pool[b], &d)
                        .unwrap()
                }
                Step::EwiseMult { c, a, b } => {
                    grb::ewise_mult_matrix(&pool[c], None, None, &times, &pool[a], &pool[b], &d)
                        .unwrap()
                }
                Step::Transpose { c, a } => {
                    grb::transpose(&pool[c], None, None, &pool[a], &d).unwrap()
                }
                Step::Fill { c, v } => grb::assign_scalar_matrix(
                    &pool[c],
                    None,
                    None,
                    Value::Int32(v as i32),
                    ALL,
                    ALL,
                    &d,
                )
                .unwrap(),
                Step::MxmForeignMask {
                    c,
                    a,
                    b,
                    structural,
                } => grb::mxm(
                    &pool[c],
                    Some(&mask),
                    None,
                    &sr,
                    &pool[a],
                    &pool[b],
                    &mask_desc(structural),
                )
                .unwrap(),
                Step::EwiseAddCast { c, a } => {
                    grb::ewise_add_matrix(&pool[c], None, None, &plus, &pool[a], &cast, &d).unwrap()
                }
            }
        }
        pool.iter()
            .map(|m| {
                m.extract_tuples()
                    .unwrap()
                    .into_iter()
                    .map(|(i, j, v)| match v {
                        Value::Int32(x) => (i, j, x),
                        other => panic!("non-int32 value {other:?}"),
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn facade_matches_typed_core(
        seeds in proptest::collection::vec(
            proptest::collection::vec((0..N, 0..N, -3i32..4), 0..8).prop_map(|mut t| {
                t.sort_by_key(|&(i, j, _)| (i, j));
                t.dedup_by_key(|&mut (i, j, _)| (i, j));
                t
            }),
            3,
        ),
        steps in proptest::collection::vec(step(), 1..10),
        mode in prop_oneof![Just(Mode::Blocking), Just(Mode::Nonblocking)],
    ) {
        prop_assert_eq!(run_typed(&seeds, &steps), run_capi(&seeds, &steps, mode));
    }
}

// ----- every predefined binary operator over every built-in domain -----

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Plus,
    Minus,
    Times,
    Div,
    Min,
    Max,
    First,
    Second,
    Eq,
    LAnd,
    LOr,
    LXor,
}

const OPS: [Op; 12] = [
    Op::Plus,
    Op::Minus,
    Op::Times,
    Op::Div,
    Op::Min,
    Op::Max,
    Op::First,
    Op::Second,
    Op::Eq,
    Op::LAnd,
    Op::LOr,
    Op::LXor,
];

fn facade_op(op: Op, ty: GrbType) -> graphblas_capi::Result<GrbBinaryOp> {
    match op {
        Op::Plus => GrbBinaryOp::plus(ty),
        Op::Minus => GrbBinaryOp::minus(ty),
        Op::Times => GrbBinaryOp::times(ty),
        Op::Div => GrbBinaryOp::div(ty),
        Op::Min => GrbBinaryOp::min(ty),
        Op::Max => GrbBinaryOp::max(ty),
        Op::First => Ok(GrbBinaryOp::first(ty)),
        Op::Second => Ok(GrbBinaryOp::second(ty)),
        Op::Eq => Ok(GrbBinaryOp::eq(ty)),
        Op::LAnd => Ok(GrbBinaryOp::land()),
        Op::LOr => Ok(GrbBinaryOp::lor()),
        Op::LXor => Ok(GrbBinaryOp::lxor()),
    }
}

/// A built-in domain's edge values and its plain-Rust arithmetic.
trait Edge: Copy + PartialOrd + std::fmt::Debug + Into<Value> {
    const TY: GrbType;
    fn edges() -> Vec<Self>;
    /// PLUS/MINUS/TIMES/DIV; `None` where the C API has no such operator.
    fn arith(op: Op, x: Self, y: Self) -> Option<Self>;
    /// The C cast to `bool`.
    fn truth(self) -> bool;
}

macro_rules! int_edge {
    ($($t:ty => $ty:ident),*) => {$(
        impl Edge for $t {
            const TY: GrbType = GrbType::$ty;
            fn edges() -> Vec<Self> {
                let big = 1i64 << 53;
                vec![0, 1, -1i64 as $t, <$t>::MIN, <$t>::MAX, big as $t, (big + 1) as $t]
            }
            fn arith(op: Op, x: Self, y: Self) -> Option<Self> {
                Some(match op {
                    Op::Plus => x.wrapping_add(y),
                    Op::Minus => x.wrapping_sub(y),
                    Op::Times => x.wrapping_mul(y),
                    _ => if y == 0 { 0 } else { x.wrapping_div(y) },
                })
            }
            fn truth(self) -> bool {
                self != 0
            }
        }
    )*};
}
int_edge!(i8 => Int8, i16 => Int16, i32 => Int32, i64 => Int64,
          u8 => Uint8, u16 => Uint16, u32 => Uint32, u64 => Uint64);

macro_rules! float_edge {
    ($($t:ty => $ty:ident),*) => {$(
        impl Edge for $t {
            const TY: GrbType = GrbType::$ty;
            fn edges() -> Vec<Self> {
                let big = (1i64 << 53) as $t;
                vec![0.0, -0.0, 1.0, -1.0, <$t>::MIN, <$t>::MAX, big, ((1i64 << 53) + 1) as $t,
                     <$t>::NAN, <$t>::INFINITY, <$t>::NEG_INFINITY]
            }
            fn arith(op: Op, x: Self, y: Self) -> Option<Self> {
                Some(match op {
                    Op::Plus => x + y,
                    Op::Minus => x - y,
                    Op::Times => x * y,
                    _ => x / y,
                })
            }
            fn truth(self) -> bool {
                self != 0.0
            }
        }
    )*};
}
float_edge!(f32 => Fp32, f64 => Fp64);

impl Edge for bool {
    const TY: GrbType = GrbType::Bool;
    fn edges() -> Vec<Self> {
        vec![false, true]
    }
    fn arith(_: Op, _: Self, _: Self) -> Option<Self> {
        None
    }
    fn truth(self) -> bool {
        self
    }
}

/// The pinned result of `op(x, y)`; `None` where the operator does not
/// exist for the domain. MIN/MAX return the first operand when the
/// comparison is unordered.
fn expect<T: Edge>(op: Op, x: T, y: T) -> Option<Value> {
    let ordered = T::TY != GrbType::Bool;
    Some(match op {
        Op::Plus | Op::Minus | Op::Times | Op::Div => T::arith(op, x, y)?.into(),
        Op::Min if ordered => (if y < x { y } else { x }).into(),
        Op::Max if ordered => (if y > x { y } else { x }).into(),
        Op::Min | Op::Max => return None,
        Op::First => x.into(),
        Op::Second => y.into(),
        Op::Eq => Value::Bool(x == y),
        Op::LAnd => Value::Bool(x.truth() && y.truth()),
        Op::LOr => Value::Bool(x.truth() || y.truth()),
        Op::LXor => Value::Bool(x.truth() != y.truth()),
    })
}

/// Equality with every NaN equal to every NaN, and `-0.0` distinct
/// from `0.0`.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Fp32(x), Value::Fp32(y)) => x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
        (Value::Fp64(x), Value::Fp64(y)) => x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
        _ => a == b,
    }
}

/// Run every operator over all pairs of `T`'s edge values through one
/// facade `eWiseMult` each; report every cell that differs.
fn check_domain<T: Edge>(failures: &mut Vec<String>) {
    let e = T::edges();
    let k = e.len();
    let (u, v) = (
        grb::GrbVector::new(T::TY, k * k).unwrap(),
        grb::GrbVector::new(T::TY, k * k).unwrap(),
    );
    for (i, &x) in e.iter().enumerate() {
        for (j, &y) in e.iter().enumerate() {
            u.set(i * k + j, x.into()).unwrap();
            v.set(i * k + j, y.into()).unwrap();
        }
    }
    for op in OPS {
        let f = match facade_op(op, T::TY) {
            Ok(f) => f,
            Err(err) => {
                assert_eq!(err.code_name(), "GrB_DOMAIN_MISMATCH", "{op:?} {:?}", T::TY);
                assert!(
                    expect(op, e[0], e[0]).is_none(),
                    "{op:?} {:?} rejected",
                    T::TY
                );
                continue;
            }
        };
        let w = grb::GrbVector::new(f.d3, k * k).unwrap();
        grb::ewise_mult_vector(&w, None, None, &f, &u, &v, &Descriptor::default()).unwrap();
        let got = w.extract_tuples().unwrap();
        assert_eq!(got.len(), k * k, "{op:?} {:?}", T::TY);
        for (idx, val) in got {
            let (x, y) = (e[idx / k], e[idx % k]);
            let want = expect(op, x, y).expect("operator exists");
            if !same(&val, &want) {
                failures.push(format!(
                    "{op:?} {:?}({x:?}, {y:?}): got {val:?}, want {want:?}",
                    T::TY
                ));
            }
        }
    }
}

#[test]
fn predefined_binary_ops_match_plain_rust_on_edge_values() {
    let failures = grb::with_session(graphblas_core::Mode::Blocking, || {
        let mut failures = Vec::new();
        check_domain::<bool>(&mut failures);
        check_domain::<i8>(&mut failures);
        check_domain::<i16>(&mut failures);
        check_domain::<i32>(&mut failures);
        check_domain::<i64>(&mut failures);
        check_domain::<u8>(&mut failures);
        check_domain::<u16>(&mut failures);
        check_domain::<u32>(&mut failures);
        check_domain::<u64>(&mut failures);
        check_domain::<f32>(&mut failures);
        check_domain::<f64>(&mut failures);
        failures
    })
    .unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `GrB_MIN_INT64` / `GrB_MAX_INT64` above 2⁵³, where two distinct
/// operands round to the same `f64`.
#[test]
fn min_max_int64_compare_exactly_above_2_pow_53() {
    grb::with_session(graphblas_core::Mode::Blocking, || {
        let big = 1i64 << 53;
        let run = |op: GrbBinaryOp, x: i64, y: i64| {
            let vec = |a: i64| {
                let v = grb::GrbVector::new(GrbType::Int64, 1).unwrap();
                v.set(0, Value::Int64(a)).unwrap();
                v
            };
            let w = grb::GrbVector::new(GrbType::Int64, 1).unwrap();
            grb::ewise_mult_vector(
                &w,
                None,
                None,
                &op,
                &vec(x),
                &vec(y),
                &Descriptor::default(),
            )
            .unwrap();
            w.get(0).unwrap()
        };
        let min = GrbBinaryOp::min(GrbType::Int64).unwrap();
        let max = GrbBinaryOp::max(GrbType::Int64).unwrap();
        assert_eq!(run(min, big + 1, big), Some(Value::Int64(big)));
        assert_eq!(run(max, big, big + 1), Some(Value::Int64(big + 1)));
    })
    .unwrap();
}

/// `GrB_VALUE*` selectors compare in the collection's domain, with the
/// thunk cast to it: exact above 2⁵³.
#[test]
fn value_selectors_compare_in_the_collection_domain() {
    use graphblas_capi::GrbSelectOp;
    grb::with_session(graphblas_core::Mode::Blocking, || {
        let big = 1i64 << 53;
        let u = grb::GrbVector::new(GrbType::Int64, 2).unwrap();
        u.set(0, Value::Int64(big)).unwrap();
        u.set(1, Value::Int64(big + 1)).unwrap();
        let select = |op: GrbSelectOp| {
            let w = grb::GrbVector::new(GrbType::Int64, 2).unwrap();
            grb::select_vector(&w, None, None, &op, &u, &Descriptor::default()).unwrap();
            w.extract_tuples().unwrap()
        };
        let gt = select(GrbSelectOp::ValueGt(Value::Int64(big)));
        assert_eq!(gt, vec![(1, Value::Int64(big + 1))]);
        let eq = select(GrbSelectOp::ValueEq(Value::Int64(big)));
        assert_eq!(eq, vec![(0, Value::Int64(big))]);
        // the thunk casts into the collection's domain: 2.5 -> 2
        let small = grb::GrbVector::new(GrbType::Int32, 2).unwrap();
        small.set(0, Value::Int32(2)).unwrap();
        small.set(1, Value::Int32(3)).unwrap();
        let w = grb::GrbVector::new(GrbType::Int32, 2).unwrap();
        let op = GrbSelectOp::ValueLe(Value::Fp64(2.5));
        grb::select_vector(&w, None, None, &op, &small, &Descriptor::default()).unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, Value::Int32(2))]);
    })
    .unwrap();
}
