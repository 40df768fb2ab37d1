//! Helpers shared by the property suites: the adversarial f64 payload
//! decoder, sorted-tuple strategies, f64 operand builders, bitwise
//! observables, and the degree / execution-mode axes the suites sweep.
//! Each suite keeps its own sizes, `DEGREES` and `GRIDS`.

// every suite compiles its own copy of this module and uses a subset
#![allow(dead_code)]

use graphblas_core::par;
use graphblas_core::prelude::*;
use proptest::prelude::*;

/// Decode a strategy byte into an f64 payload; low codes are the
/// adversarial specials (NaN, ±∞, -0.0).
pub fn fval(code: u8) -> f64 {
    match code {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        c => (f64::from(c) - 128.0) * 0.625,
    }
}

/// `(row, column, payload code)` triples, sorted and unique by position.
pub type Tuples = Vec<(usize, usize, u8)>;

/// Up to `max_nnz` tuples over an `nrows × ncols` index space.
pub fn tuples(nrows: usize, ncols: usize, max_nnz: usize) -> impl Strategy<Value = Tuples> {
    proptest::collection::vec((0..nrows, 0..ncols, 0u8..255), 0..=max_nnz).prop_map(|mut t| {
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        t
    })
}

/// Up to `max_nnz` tuples over an `n × n` index space.
pub fn sparse(n: usize, max_nnz: usize) -> impl Strategy<Value = Tuples> {
    tuples(n, n, max_nnz)
}

/// An `n × n` matrix of `t`'s decoded payloads, sharded into the tile
/// grid `grid` when one is given.
pub fn to_matrix(n: usize, t: &Tuples, grid: Option<(usize, usize)>) -> Matrix<f64> {
    let tuples: Vec<(usize, usize, f64)> = t.iter().map(|&(i, j, c)| (i, j, fval(c))).collect();
    let m = Matrix::from_tuples(n, n, &tuples).unwrap();
    if let Some((r, c)) = grid {
        m.set_tile_shape(r, c).unwrap();
    }
    m
}

/// Memoize `b`'s column view through the public API: one `mxm` that
/// reads `b` transposed (`GrB_INP0 = GrB_TRAN`) builds its store's `Bᵀ`,
/// so a later masked product sees the dot form's transpose as free.
pub fn warm_col_view<T: NumScalar>(ctx: &Context, b: &Matrix<T>) {
    let t = Matrix::<T>::new(b.ncols(), b.ncols()).unwrap();
    let tran = Descriptor::default().transpose_first();
    ctx.mxm(&t, NoMask, NoAccum, plus_times::<T>(), b, b, &tran)
        .unwrap();
    t.wait().unwrap();
}

/// A length-`n` vector set from `t`'s rows (columns ignored; a later
/// tuple on the same row overwrites an earlier one).
pub fn to_vector(n: usize, t: &Tuples) -> Vector<f64> {
    let v = Vector::<f64>::new(n).unwrap();
    for &(i, _, c) in t {
        v.set(i, fval(c)).unwrap();
    }
    v
}

/// Pattern + bit pattern of every stored element — the bitwise identity
/// the suites assert (NaN payloads included).
pub fn matrix_bits(m: &Matrix<f64>) -> Vec<(usize, usize, u64)> {
    m.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, j, x)| (i, j, x.to_bits()))
        .collect()
}

/// [`matrix_bits`] for vectors.
pub fn vector_bits(v: &Vector<f64>) -> Vec<(usize, u64)> {
    v.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, x)| (i, x.to_bits()))
        .collect()
}

/// Run `f` with the intra-kernel degree pinned to `k` and the cost model
/// forced so even proptest-sized fixtures chunk. The overrides are
/// thread-local; both modes compute on the calling thread (nonblocking
/// `wait()` forces its roots there), so they bind every context.
pub fn at_degree<R>(k: usize, f: impl FnOnce() -> R) -> R {
    par::with_cost_model(1, 0, || par::with_parallelism(k, f))
}

/// One context per execution mode: blocking, nonblocking.
pub fn contexts() -> [Context; 2] {
    [Context::blocking(), Context::nonblocking()]
}
