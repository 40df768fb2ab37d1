//! Experiment E14: the erased-lane tax — the same PLUS_TIMES program
//! through the capi with (a) the built-in `GrB_INT64` semiring, which
//! dispatches to the monomorphized kernels, and (b) a runtime-registered
//! wrapped-`i64` user type whose closures do the identical arithmetic
//! over raw bytes on the erased `Value::Udf` lane. The gap is the cost
//! of runtime-defined algebra: per-element closure dispatch over
//! borrowed payload bytes and the tagged `Value` element (payloads of
//! up to 16 bytes are inline, so nothing is allocated). The built-in lane
//! here must match the untouched E12/E13 built-in numbers — the erased
//! lane is a separate instantiation, not a rewrite of the hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use graphblas_capi as grb;
use graphblas_capi::{
    grb_binary_op_new, grb_monoid_new, grb_semiring_new, grb_type_new, GrbBinaryOp, GrbMatrix,
    GrbMonoid, GrbSemiring, GrbType, GrbVector, Value,
};
use graphblas_gen::{rmat, RmatParams};
use std::time::Duration;

fn builtin_semiring() -> GrbSemiring {
    let add = GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int64).unwrap(), Value::Int64(0)).unwrap();
    GrbSemiring::new(add, GrbBinaryOp::times(GrbType::Int64).unwrap()).unwrap()
}

fn bench_udf_overhead(c: &mut Criterion) {
    let g = rmat(9, 8, RmatParams::default(), 21)
        .dedup()
        .without_self_loops();
    let n = g.n;
    let tuples = g.int_tuples();

    let udt = grb_type_new("bench_wrapped_i64", 8).unwrap();
    let t = udt.ty();
    let dec = |b: &[u8]| i64::from_ne_bytes(b.try_into().unwrap());
    let uplus = grb_binary_op_new("bench_plus_i64", t, t, t, move |z, x, y| {
        z.copy_from_slice(&dec(x).wrapping_add(dec(y)).to_ne_bytes());
    });
    let utimes = grb_binary_op_new("bench_times_i64", t, t, t, move |z, x, y| {
        z.copy_from_slice(&dec(x).wrapping_mul(dec(y)).to_ne_bytes());
    });
    let uadd = grb_monoid_new(&uplus, &0i64.to_ne_bytes()).unwrap();
    let usr = grb_semiring_new(uadd, utimes).unwrap();

    let mut group = c.benchmark_group("udf_overhead");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);

    grb::with_session(graphblas_core::Mode::Blocking, || {
        let rows: Vec<usize> = tuples.iter().map(|t| t.0).collect();
        let cols: Vec<usize> = tuples.iter().map(|t| t.1).collect();

        // built-in lane (monomorphized kernels over Value::Int64)
        let bsr = builtin_semiring();
        let vals: Vec<Value> = tuples
            .iter()
            .map(|t| Value::Int64(i64::from(t.2)))
            .collect();
        let a_b = GrbMatrix::new(GrbType::Int64, n, n).unwrap();
        a_b.build(
            &rows,
            &cols,
            &vals,
            &GrbBinaryOp::plus(GrbType::Int64).unwrap(),
        )
        .unwrap();
        let u_b = GrbVector::new(GrbType::Int64, n).unwrap();
        for i in 0..n {
            u_b.set(i, Value::Int64(i as i64 + 1)).unwrap();
        }

        // erased lane (identical arithmetic via registered byte closures)
        let vals: Vec<Value> = tuples
            .iter()
            .map(|t| udt.value(&i64::from(t.2).to_ne_bytes()).unwrap())
            .collect();
        let a_u = GrbMatrix::new(t, n, n).unwrap();
        a_u.build(&rows, &cols, &vals, &uplus).unwrap();
        let u_u = GrbVector::new(t, n).unwrap();
        for i in 0..n {
            u_u.set(i, udt.value(&(i as i64 + 1).to_ne_bytes()).unwrap())
                .unwrap();
        }

        group.bench_function("mxv/builtin_int64", |b| {
            b.iter(|| {
                let w = GrbVector::new(GrbType::Int64, n).unwrap();
                grb::mxv(&w, None, None, &bsr, &a_b, &u_b, &Default::default()).unwrap();
                w.nvals().unwrap()
            })
        });
        group.bench_function("mxv/udf_wrapped_i64", |b| {
            b.iter(|| {
                let w = GrbVector::new(t, n).unwrap();
                grb::mxv(&w, None, None, &usr, &a_u, &u_u, &Default::default()).unwrap();
                w.nvals().unwrap()
            })
        });
        group.bench_function("mxm/builtin_int64", |b| {
            b.iter(|| {
                let out = GrbMatrix::new(GrbType::Int64, n, n).unwrap();
                grb::mxm(&out, None, None, &bsr, &a_b, &a_b, &Default::default()).unwrap();
                out.nvals().unwrap()
            })
        });
        group.bench_function("mxm/udf_wrapped_i64", |b| {
            b.iter(|| {
                let out = GrbMatrix::new(t, n, n).unwrap();
                grb::mxm(&out, None, None, &usr, &a_u, &a_u, &Default::default()).unwrap();
                out.nvals().unwrap()
            })
        });
    })
    .unwrap();
    group.finish();
}

criterion_group!(benches, bench_udf_overhead);
criterion_main!(benches);
