//! Experiment E1: the execution model's cost surface (paper §IV).
//!
//! * blocking vs nonblocking on the same pipelines (deferral overhead
//!   should be noise);
//! * lazy dead-code elimination: pipelines whose intermediates are
//!   overwritten before observation cost nothing for the dead work in
//!   nonblocking mode;
//! * the memoized transpose shared across a sequence (the "don't
//!   rematerialize" latitude).

use criterion::{criterion_group, criterion_main, Criterion};
use graphblas_bench::{dense_vector, f64_matrix, rmat_graph};
use graphblas_core::prelude::*;
use std::time::Duration;

fn bench_pipeline_modes(c: &mut Criterion) {
    let scale = 10;
    let g = rmat_graph(scale);
    let n = g.n;
    let a = f64_matrix(&g, 3);
    let v = dense_vector(n);

    // a BFS-ish pipeline: 8 chained mxv + ewise steps, observed once
    let pipeline = |ctx: &Context| {
        let w = Vector::<f64>::new(n).unwrap();
        ctx.mxv(
            &w,
            NoMask,
            NoAccum,
            plus_times::<f64>(),
            &a,
            &v,
            &Descriptor::default(),
        )
        .unwrap();
        for _ in 0..7 {
            ctx.mxv(
                &w,
                NoMask,
                NoAccum,
                plus_times::<f64>(),
                &a,
                &w,
                &Descriptor::default().replace(),
            )
            .unwrap();
        }
        w.nvals().unwrap()
    };

    let mut group = c.benchmark_group("exec/pipeline");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("blocking", |b| {
        let ctx = Context::blocking();
        b.iter(|| pipeline(&ctx))
    });
    group.bench_function("nonblocking", |b| {
        let ctx = Context::nonblocking();
        b.iter(|| {
            let r = pipeline(&ctx);
            ctx.wait().unwrap();
            r
        })
    });
    group.finish();
}

fn bench_dead_code_elimination(c: &mut Criterion) {
    let scale = 9;
    let g = rmat_graph(scale);
    let n = g.n;
    let a = f64_matrix(&g, 4);

    // 4 expensive products; only the last is observed, and each
    // overwrites the same handle — nonblocking never runs the first 3
    let wasteful = |ctx: &Context| {
        let out = Matrix::<f64>::new(n, n).unwrap();
        for _ in 0..4 {
            ctx.mxm(
                &out,
                NoMask,
                NoAccum,
                plus_times::<f64>(),
                &a,
                &a,
                &Descriptor::default().replace(),
            )
            .unwrap();
        }
        out.nvals().unwrap()
    };

    let mut group = c.benchmark_group("exec/dead_code");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("blocking_computes_all_4", |b| {
        let ctx = Context::blocking();
        b.iter(|| wasteful(&ctx))
    });
    group.bench_function("nonblocking_computes_only_1", |b| {
        let ctx = Context::nonblocking();
        b.iter(|| {
            let r = wasteful(&ctx);
            ctx.wait().unwrap();
            r
        })
    });
    group.finish();
}

fn bench_transpose_caching(c: &mut Criterion) {
    // the BC forward-sweep pattern: A^T used in a loop — memoized on the
    // operand's node, so iterations after the first skip the sort
    let scale = 11;
    let g = rmat_graph(scale);
    let n = g.n;
    let a = f64_matrix(&g, 5);
    let v = dense_vector(n);
    let ctx = Context::blocking();

    let mut group = c.benchmark_group("exec/transpose_cache");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("mxv_tran_cached_operand", |b| {
        // same `a` handle across iterations: cache hit after warmup
        b.iter(|| {
            let w = Vector::<f64>::new(n).unwrap();
            ctx.mxv(
                &w,
                NoMask,
                NoAccum,
                plus_times::<f64>(),
                &a,
                &v,
                &Descriptor::default().transpose_first(),
            )
            .unwrap();
            w.nvals().unwrap()
        })
    });
    let a_tuples = a.extract_tuples().unwrap();
    group.bench_function("mxv_tran_fresh_operand", |b| {
        // fresh value node each iteration: the transpose is recomputed
        b.iter_batched(
            || Matrix::from_tuples(n, n, &a_tuples).unwrap(),
            |fresh| {
                let w = Vector::<f64>::new(n).unwrap();
                ctx.mxv(
                    &w,
                    NoMask,
                    NoAccum,
                    plus_times::<f64>(),
                    &fresh,
                    &v,
                    &Descriptor::default().transpose_first(),
                )
                .unwrap();
                w.nvals().unwrap()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline_modes,
    bench_dead_code_elimination,
    bench_transpose_caching
);
criterion_main!(benches);
