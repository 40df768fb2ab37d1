//! PR acceptance property for runtime-defined algebra (`algebra::udf` +
//! the capi registration surface): a user-defined wrapped-`i64` domain
//! with a registered PLUS_TIMES semiring — whose closures perform
//! exactly the built-in `GrB_INT64` arithmetic over raw bytes — observes
//! **bitwise** identical results to the built-in `GrB_INT64` semiring on
//! the same program, across execution modes, storage formats (including
//! 2D-tiled), and intra-kernel parallelism degrees. The built-in lane is
//! monomorphized; the UDT lane is the erased `Value::Udf` instantiation:
//! this property pins that the two lanes compute the same algebra.
//!
//! A second property registers types of 1, 16, 17 and 24 bytes — either
//! side of the 16-byte boundary between inline and heap payloads — and
//! checks every payload the facade returns bitwise against a plain-Rust
//! model of the same program.

use std::collections::BTreeMap;
use std::sync::OnceLock;

mod common;

use common::{at_degree, sparse, Tuples};
use graphblas_capi::{
    grb_binary_op_new, grb_monoid_new, grb_semiring_new, grb_type_new, grb_unary_op_new, gxb_set,
    operations as ops, with_session, Descriptor, GrbBinaryOp, GrbMatrix, GrbMonoid, GrbSemiring,
    GrbType, GrbTypeHandle, GrbUnaryOp, GrbVector, GxbOption, GxbScope, GxbValue, Mode, Value,
};
use proptest::prelude::*;

const N: usize = 10;
const DEGREES: [usize; 3] = [1, 2, 8];

/// Shard `a` into `grid`, when one is given, through
/// `GxB_set(Matrix, TileShape, …)`.
fn tile(a: &GrbMatrix, grid: Option<(usize, usize)>) {
    if grid.is_some() {
        let shape = GxbValue::TileShape(grid);
        gxb_set(GxbScope::Matrix(a), GxbOption::TileShape, shape).unwrap();
    }
}

/// Decode a strategy byte into an i64 payload with sign and magnitude
/// spread (wrapping arithmetic is exercised by the products).
fn ival(code: u8) -> i64 {
    (i64::from(code) - 128).wrapping_mul(0x0123_4567_89ab)
}

/// The registered wrapped-i64 domain (one registration per process; the
/// registry is global and nominal).
fn udt() -> GrbTypeHandle {
    static T: OnceLock<GrbTypeHandle> = OnceLock::new();
    *T.get_or_init(|| grb_type_new("prop_wrapped_i64", 8).unwrap())
}

struct UdtAlgebra {
    sr: GrbSemiring,
    add: GrbMonoid,
    plus: GrbBinaryOp,
    times: GrbBinaryOp,
    neg: GrbUnaryOp,
}

/// The registered algebra mirroring GrB_{PLUS,TIMES,AINV}_INT64 over
/// raw bytes (built once: operator names intern for the process
/// lifetime, so constructors must not run per proptest case).
fn udt_algebra() -> &'static UdtAlgebra {
    static A: OnceLock<UdtAlgebra> = OnceLock::new();
    A.get_or_init(|| {
        let t = udt().ty();
        let dec = |b: &[u8]| i64::from_ne_bytes(b.try_into().unwrap());
        let plus = grb_binary_op_new("prop_plus_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_add(dec(y)).to_ne_bytes());
        });
        let times = grb_binary_op_new("prop_times_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_mul(dec(y)).to_ne_bytes());
        });
        let neg = grb_unary_op_new("prop_neg_i64", t, t, move |z, x| {
            z.copy_from_slice(&dec(x).wrapping_neg().to_ne_bytes());
        });
        let add = grb_monoid_new(&plus, &0i64.to_ne_bytes()).unwrap();
        let sr = grb_semiring_new(add.clone(), times.clone()).unwrap();
        UdtAlgebra {
            sr,
            add,
            plus,
            times,
            neg,
        }
    })
}

struct BuiltinAlgebra {
    sr: GrbSemiring,
    add: GrbMonoid,
    plus: GrbBinaryOp,
    times: GrbBinaryOp,
    neg: GrbUnaryOp,
}

fn builtin_algebra() -> BuiltinAlgebra {
    let plus = GrbBinaryOp::plus(GrbType::Int64).unwrap();
    let times = GrbBinaryOp::times(GrbType::Int64).unwrap();
    let neg = GrbUnaryOp::ainv(GrbType::Int64).unwrap();
    let add = GrbMonoid::new(plus.clone(), Value::Int64(0)).unwrap();
    let sr = GrbSemiring::new(add.clone(), times.clone()).unwrap();
    BuiltinAlgebra {
        sr,
        add,
        plus,
        times,
        neg,
    }
}

/// Everything the program observes, decoded to i64 (bit-identical by
/// construction of the decoding: both lanes store 8 little/native-endian
/// bytes per entry).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Obs {
    vecs: Vec<Vec<(usize, i64)>>,
    mats: Vec<Vec<(usize, usize, i64)>>,
    scalars: Vec<i64>,
}

fn decode(v: &Value) -> i64 {
    match v {
        Value::Int64(x) => *x,
        Value::Udf(u) => i64::from_ne_bytes(u.bytes().try_into().unwrap()),
        v => panic!("unexpected domain in equivalence program: {v:?}"),
    }
}

fn vec_obs(w: &graphblas_capi::GrbVector) -> Vec<(usize, i64)> {
    w.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, v)| (i, decode(&v)))
        .collect()
}

fn mat_obs(m: &GrbMatrix) -> Vec<(usize, usize, i64)> {
    m.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, j, v)| (i, j, decode(&v)))
        .collect()
}

/// Run the fixed program over domain `ty`, encoding payloads with
/// `enc`, using the algebra pieces passed in. Must run inside a live
/// session.
#[allow(clippy::too_many_arguments)]
fn interpret(
    ty: GrbType,
    enc: &dyn Fn(i64) -> Value,
    sr: &GrbSemiring,
    add: &GrbMonoid,
    plus: &GrbBinaryOp,
    times: &GrbBinaryOp,
    neg: &GrbUnaryOp,
    m0: &Tuples,
    u0: &Tuples,
    grid: Option<(usize, usize)>,
) -> Obs {
    let d = Descriptor::default();
    let a = GrbMatrix::new(ty, N, N).unwrap();
    for &(i, j, c) in m0 {
        a.set(i, j, enc(ival(c))).unwrap();
    }
    tile(&a, grid);
    let u = graphblas_capi::GrbVector::new(ty, N).unwrap();
    for &(i, _, c) in u0 {
        u.set(i, enc(ival(c))).unwrap();
    }

    let mut obs = Obs {
        vecs: Vec::new(),
        mats: Vec::new(),
        scalars: Vec::new(),
    };

    // w = A ⊕.⊗ u ; w2 = u ⊕.⊗ A
    let w = graphblas_capi::GrbVector::new(ty, N).unwrap();
    ops::mxv(&w, None, None, sr, &a, &u, &d).unwrap();
    let w2 = graphblas_capi::GrbVector::new(ty, N).unwrap();
    ops::vxm(&w2, None, None, sr, &u, &a, &d).unwrap();

    // eWise add and mult over the two products
    let s = graphblas_capi::GrbVector::new(ty, N).unwrap();
    ops::ewise_add_vector(&s, None, None, plus, &w, &w2, &d).unwrap();
    let p = graphblas_capi::GrbVector::new(ty, N).unwrap();
    ops::ewise_mult_vector(&p, None, None, times, &w, &w2, &d).unwrap();

    // unary apply through the registered/unregistered op, with accum
    let q = graphblas_capi::GrbVector::new(ty, N).unwrap();
    ops::apply_vector(&q, None, None, neg, &s, &d).unwrap();
    ops::apply_vector(&q, None, Some(plus), neg, &p, &d).unwrap();

    // C = A ⊕.⊗ A, then a row reduction and a full reduction
    let c = GrbMatrix::new(ty, N, N).unwrap();
    ops::mxm(&c, None, None, sr, &a, &a, &d).unwrap();
    let r = graphblas_capi::GrbVector::new(ty, N).unwrap();
    ops::reduce_rows(&r, None, None, add, &c, &d).unwrap();

    obs.scalars
        .push(decode(&ops::reduce_vector_scalar(add, &s).unwrap()));
    obs.scalars
        .push(decode(&ops::reduce_matrix_scalar(add, &c).unwrap()));
    for v in [&w, &w2, &s, &p, &q, &r] {
        obs.vecs.push(vec_obs(v));
    }
    obs.mats.push(mat_obs(&a));
    obs.mats.push(mat_obs(&c));
    obs
}

fn run_udt(m0: &Tuples, u0: &Tuples, grid: Option<(usize, usize)>) -> Obs {
    let t = udt();
    let alg = udt_algebra();
    let enc = move |v: i64| t.value(&v.to_ne_bytes()).unwrap();
    interpret(
        t.ty(),
        &enc,
        &alg.sr,
        &alg.add,
        &alg.plus,
        &alg.times,
        &alg.neg,
        m0,
        u0,
        grid,
    )
}

fn run_builtin(m0: &Tuples, u0: &Tuples, grid: Option<(usize, usize)>) -> Obs {
    let alg = builtin_algebra();
    interpret(
        GrbType::Int64,
        &Value::Int64,
        &alg.sr,
        &alg.add,
        &alg.plus,
        &alg.times,
        &alg.neg,
        m0,
        u0,
        grid,
    )
}

const GRIDS: [Option<(usize, usize)>; 2] = [None, Some((4, 4))];

const SESSIONS: [Mode; 2] = [Mode::Blocking, Mode::Nonblocking];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: the registered UDT semiring and the
    /// built-in INT64 semiring observe identical results on every
    /// (mode, grid, degree) combination — and every one of
    /// those equals the serial blocking built-in reference.
    #[test]
    fn udt_semiring_equals_builtin_bitwise(
        m0 in sparse(N, 40),
        u0 in sparse(N, 12),
    ) {
        let reference = with_session(
            Mode::Blocking,
            || at_degree(1, || run_builtin(&m0, &u0, None)),
        ).unwrap();

        for mode in SESSIONS {
            for grid in GRIDS {
                for k in DEGREES {
                    let (b, udt_obs) = with_session(mode, || {
                        at_degree(k, || {
                            (run_builtin(&m0, &u0, grid), run_udt(&m0, &u0, grid))
                        })
                    }).unwrap();
                    prop_assert_eq!(
                        &reference, &b,
                        "builtin drifted: mode {:?} grid {:?} degree {}",
                        mode, grid, k
                    );
                    prop_assert_eq!(
                        &reference, &udt_obs,
                        "udt lane drifted: mode {:?} grid {:?} degree {}",
                        mode, grid, k
                    );
                }
            }
        }
    }
}

// ----- payload sizes either side of the inline boundary -----

/// 1 and 16 bytes are stored inline, 17 and 24 on the heap.
const SIZES: [usize; 4] = [1, 16, 17, 24];

/// A `size`-byte payload from a strategy byte; its bytes vary with
/// position, so a byte moved, dropped or zeroed shows.
fn payload(code: u8, size: usize) -> Vec<u8> {
    (0..size)
        .map(|k| code.wrapping_mul(2 * k as u8 + 1).wrapping_add(k as u8))
        .collect()
}

/// ⊕: bytewise wrapping add. Associative and commutative with identity
/// zero, so every fold order gives the same bytes.
fn byte_plus(z: &mut [u8], x: &[u8], y: &[u8]) {
    for (k, z) in z.iter_mut().enumerate() {
        *z = x[k].wrapping_add(y[k]);
    }
}

/// ⊗: mixes each byte with its neighbour and is not commutative, so
/// swapped operands or a shifted payload show.
fn byte_times(z: &mut [u8], x: &[u8], y: &[u8]) {
    let n = z.len();
    for (k, z) in z.iter_mut().enumerate() {
        *z = x[k].wrapping_mul(y[k]).wrapping_add(x[(k + 1) % n]);
    }
}

/// A unary operator that reverses the payload and tags each byte with
/// its position.
fn byte_flip(z: &mut [u8], x: &[u8]) {
    let n = z.len();
    for (k, z) in z.iter_mut().enumerate() {
        *z = x[n - 1 - k] ^ k as u8;
    }
}

struct SizedAlgebra {
    t: GrbTypeHandle,
    sr: GrbSemiring,
    add: GrbMonoid,
    plus: GrbBinaryOp,
    flip: GrbUnaryOp,
}

/// One registered type and algebra per size, built once per process.
fn sized_algebra(size: usize) -> &'static SizedAlgebra {
    static A: OnceLock<Vec<SizedAlgebra>> = OnceLock::new();
    let all = A.get_or_init(|| {
        SIZES
            .iter()
            .map(|&size| {
                let t = grb_type_new(&format!("prop_bytes{size}"), size).unwrap();
                let ty = t.ty();
                let plus = grb_binary_op_new("prop_byte_plus", ty, ty, ty, byte_plus);
                let times = grb_binary_op_new("prop_byte_times", ty, ty, ty, byte_times);
                let flip = grb_unary_op_new("prop_byte_flip", ty, ty, byte_flip);
                let add = grb_monoid_new(&plus, &vec![0; size]).unwrap();
                let sr = grb_semiring_new(add.clone(), times).unwrap();
                SizedAlgebra {
                    t,
                    sr,
                    add,
                    plus,
                    flip,
                }
            })
            .collect()
    });
    &all[SIZES.iter().position(|&s| s == size).unwrap()]
}

/// What the sized program observes: every result's tuples and one scalar,
/// each payload as raw bytes.
#[derive(Debug, PartialEq, Eq)]
struct Bytes {
    vecs: Vec<Vec<(usize, Vec<u8>)>>,
    mats: Vec<Vec<(usize, usize, Vec<u8>)>>,
    scalar: Vec<u8>,
}

/// `w = A ⊕.⊗ u`, `C = A ⊕.⊗ A`, `s = w ⊕ u`, `q = flip(s)`,
/// `r = ⊕ over the rows of C`, and `⊕` over `q`, through the facade.
fn run_sized(size: usize, m0: &Tuples, u0: &Tuples, grid: Option<(usize, usize)>) -> Bytes {
    let alg = sized_algebra(size);
    let (t, ty, d) = (alg.t, alg.t.ty(), Descriptor::default());
    let a = GrbMatrix::new(ty, N, N).unwrap();
    for &(i, j, c) in m0 {
        a.set(i, j, t.value(&payload(c, size)).unwrap()).unwrap();
    }
    tile(&a, grid);
    let u = GrbVector::new(ty, N).unwrap();
    for &(i, _, c) in u0 {
        u.set(i, t.value(&payload(c, size)).unwrap()).unwrap();
    }
    let vector = || GrbVector::new(ty, N).unwrap();
    let (w, s, q, r) = (vector(), vector(), vector(), vector());
    ops::mxv(&w, None, None, &alg.sr, &a, &u, &d).unwrap();
    let c = GrbMatrix::new(ty, N, N).unwrap();
    ops::mxm(&c, None, None, &alg.sr, &a, &a, &d).unwrap();
    ops::ewise_add_vector(&s, None, None, &alg.plus, &w, &u, &d).unwrap();
    ops::apply_vector(&q, None, None, &alg.flip, &s, &d).unwrap();
    ops::reduce_rows(&r, None, None, &alg.add, &c, &d).unwrap();
    let scalar = ops::reduce_vector_scalar(&alg.add, &q).unwrap();

    let read = |v: &Value| t.read(v).unwrap().to_vec();
    let vec_bytes = |v: &GrbVector| {
        let tuples = v.extract_tuples().unwrap();
        tuples.iter().map(|(i, x)| (*i, read(x))).collect()
    };
    let mat_bytes = |m: &GrbMatrix| {
        let tuples = m.extract_tuples().unwrap();
        tuples.iter().map(|(i, j, x)| (*i, *j, read(x))).collect()
    };
    Bytes {
        vecs: [&w, &s, &q, &r].into_iter().map(vec_bytes).collect(),
        mats: vec![mat_bytes(&a), mat_bytes(&c)],
        scalar: read(&scalar),
    }
}

/// The same program in plain Rust over the same byte functions.
fn model_sized(size: usize, m0: &Tuples, u0: &Tuples) -> Bytes {
    type Sparse = BTreeMap<usize, Vec<u8>>;
    let bin = |f: fn(&mut [u8], &[u8], &[u8]), x: &[u8], y: &[u8]| {
        let mut z = vec![0; size];
        f(&mut z, x, y);
        z
    };
    let fold = |acc: Option<Vec<u8>>, x: Vec<u8>| match acc {
        Some(acc) => bin(byte_plus, &acc, &x),
        None => x,
    };
    let a: BTreeMap<(usize, usize), Vec<u8>> = m0
        .iter()
        .map(|&(i, j, c)| ((i, j), payload(c, size)))
        .collect();
    let u: Sparse = u0.iter().map(|&(i, _, c)| (i, payload(c, size))).collect();
    let mut w = Sparse::new();
    for (&(i, j), x) in &a {
        if let Some(y) = u.get(&j) {
            let acc = w.remove(&i);
            w.insert(i, fold(acc, bin(byte_times, x, y)));
        }
    }
    let mut c: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
    for (&(i, k), x) in &a {
        for (&(_, j), y) in a.range((k, 0)..(k + 1, 0)) {
            let acc = c.remove(&(i, j));
            c.insert((i, j), fold(acc, bin(byte_times, x, y)));
        }
    }
    let mut s = w.clone();
    for (&i, y) in &u {
        let acc = s.remove(&i);
        s.insert(i, fold(acc, y.clone()));
    }
    let q: Sparse = s
        .iter()
        .map(|(&i, x)| {
            let mut z = vec![0; size];
            byte_flip(&mut z, x);
            (i, z)
        })
        .collect();
    let mut r = Sparse::new();
    for (&(i, _), x) in &c {
        let acc = r.remove(&i);
        r.insert(i, fold(acc, x.clone()));
    }
    let scalar = q
        .values()
        .cloned()
        .fold(vec![0; size], |acc, x| bin(byte_plus, &acc, &x));
    let vec_bytes = |v: &Sparse| v.iter().map(|(&i, x)| (i, x.clone())).collect();
    let mat_bytes = |m: &BTreeMap<(usize, usize), Vec<u8>>| {
        m.iter().map(|(&(i, j), x)| (i, j, x.clone())).collect()
    };
    Bytes {
        vecs: [&w, &s, &q, &r].into_iter().map(vec_bytes).collect(),
        mats: vec![mat_bytes(&a), mat_bytes(&c)],
        scalar,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Inline and heap payloads: for each registered size, every result
    /// of `mxv`, `mxm`, `eWiseAdd`, `apply` and both reductions, read back
    /// through `extract_tuples`, equals the plain-Rust model bitwise in
    /// every session, grid and degree. Sizes are an axis like the
    /// others, so each case covers both sides of the boundary.
    #[test]
    fn udt_payloads_of_every_size_match_a_plain_model(
        m0 in sparse(N, 40),
        u0 in sparse(N, 12),
    ) {
        for size in SIZES {
            let want = model_sized(size, &m0, &u0);
            for mode in SESSIONS {
                for grid in GRIDS {
                    for k in DEGREES {
                        let got = with_session(mode, || {
                            at_degree(k, || run_sized(size, &m0, &u0, grid))
                        }).unwrap();
                        prop_assert_eq!(
                            &want, &got,
                            "size {}: mode {:?} grid {:?} degree {}",
                            size, mode, grid, k
                        );
                    }
                }
            }
        }
    }
}
