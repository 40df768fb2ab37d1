//! Experiment E8: thread-scaling ablation — the row-parallel kernels at
//! intra-kernel degrees 1, 2, 4, 8 on the shared worker pool (design
//! objective (ii): "enabling high-performance implementations on modern
//! hardware"). Kernels are called directly, so there is no DAG
//! scheduling or fusion in the loop; the degree is pinned per
//! measurement with [`par::with_parallelism`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_core::algebra::semiring::plus_times;
use graphblas_core::kernel::mxm::{mxm, MxmStrategy};
use graphblas_core::mask::MaskCsr;
use graphblas_core::par;
use graphblas_core::storage::csr::Csr;
use graphblas_core::storage::engine::MatrixStore;
use graphblas_gen::{rmat, RmatParams};
use std::time::Duration;

const DEGREES: [usize; 4] = [1, 2, 4, 8];

/// Fix the worker pool's width at the widest degree we measure. The
/// pool is sized once, at first use, from the default-parallelism knob —
/// so this must run before the first parallel kernel.
fn widen_pool() {
    par::set_default_parallelism(Some(*DEGREES.iter().max().unwrap()));
}

fn bench_thread_scaling(c: &mut Criterion) {
    widen_pool();
    let g = rmat(12, 8, RmatParams::default(), 9)
        .dedup()
        .without_self_loops();
    let mut t = g.weighted_tuples(1.0, 2.0, 9);
    t.sort_by_key(|&(i, j, _)| (i, j));
    let a = Csr::from_sorted_tuples(g.n, g.n, t);
    let sr = plus_times::<f64>();

    let mut group = c.benchmark_group("ablation_parallel/mxm");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for degree in DEGREES {
        group.bench_function(BenchmarkId::new("threads", degree), |b| {
            b.iter(|| {
                par::with_parallelism(degree, || {
                    mxm(&sr, &a, &a, &MaskCsr::All, MxmStrategy::Auto).nvals()
                })
            })
        });
    }
    group.finish();
}

fn bench_ewise_scaling(c: &mut Criterion) {
    widen_pool();
    let g = rmat(13, 8, RmatParams::default(), 10).dedup();
    let mut t = g.weighted_tuples(1.0, 2.0, 10);
    t.sort_by_key(|&(i, j, _)| (i, j));
    let a = Csr::from_sorted_tuples(g.n, g.n, t);

    let mut group = c.benchmark_group("ablation_parallel/ewise_add");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let add = graphblas_core::algebra::binary::Plus::<f64>::new();
    for degree in DEGREES {
        group.bench_function(BenchmarkId::new("threads", degree), |b| {
            b.iter(|| {
                par::with_parallelism(degree, || {
                    graphblas_core::kernel::ewise::ewise_add_matrix(&a, &a, &add).nvals()
                })
            })
        });
    }
    group.finish();
}

fn bench_mxv_scaling(c: &mut Criterion) {
    widen_pool();
    let g = rmat(14, 8, RmatParams::default(), 11).dedup();
    let mut t = g.weighted_tuples(1.0, 2.0, 11);
    t.sort_by_key(|&(i, j, _)| (i, j));
    let a = MatrixStore::csr(Csr::from_sorted_tuples(g.n, g.n, t));
    let v = graphblas_core::storage::vec::SparseVec::from_sorted_parts(
        g.n,
        (0..g.n).collect(),
        (0..g.n).map(|i| (i % 17) as f64).collect(),
    );
    let sr = plus_times::<f64>();

    let mut group = c.benchmark_group("ablation_parallel/mxv");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for degree in DEGREES {
        group.bench_function(BenchmarkId::new("threads", degree), |b| {
            b.iter(|| {
                par::with_parallelism(degree, || {
                    graphblas_core::kernel::spmspv::mxv(
                        &sr,
                        &a,
                        &v,
                        false,
                        &graphblas_core::mask::MaskVec::All,
                    )
                    .nvals()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_thread_scaling,
    bench_ewise_scaling,
    bench_mxv_scaling
);
criterion_main!(benches);
