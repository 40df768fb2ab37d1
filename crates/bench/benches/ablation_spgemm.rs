//! Experiment A1: SpGEMM accumulator-strategy ablation, driving the
//! kernel layer directly — hash vs dense vs the per-row Auto heuristic,
//! on workloads chosen to favour each side, plus scatter vs dot-product
//! form for masked products.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_core::algebra::semiring::plus_times;
use graphblas_core::kernel::mxm::{mxm, mxm_dot, MxmStrategy};
use graphblas_core::mask::MaskCsr;
use graphblas_core::storage::csr::Csr;
use graphblas_gen::{erdos_renyi_gnm, rmat, RmatParams};
use std::time::Duration;

fn to_csr(g: &graphblas_gen::EdgeList, seed: u64) -> Csr<f64> {
    let mut t = g.weighted_tuples(1.0, 2.0, seed);
    t.sort_by_key(|&(i, j, _)| (i, j));
    Csr::from_sorted_tuples(g.n, g.n, t)
}

fn bench_strategies(c: &mut Criterion) {
    // hypersparse: ER with avg degree 4 (hash should win)
    // denser rows: RMAT with heavy hubs (dense accumulators pay off on
    // hub rows; Auto should track the better of the two)
    let workloads = [
        (
            "er_sparse",
            to_csr(&erdos_renyi_gnm(4096, 16384, 1).dedup(), 1),
        ),
        (
            "rmat_skewed",
            to_csr(
                &rmat(12, 8, RmatParams::default(), 2)
                    .dedup()
                    .without_self_loops(),
                2,
            ),
        ),
    ];
    let sr = plus_times::<f64>();
    for (name, a) in &workloads {
        let mut group = c.benchmark_group(format!("ablation_spgemm/{name}"));
        group.warm_up_time(Duration::from_millis(500));
        group.measurement_time(Duration::from_secs(2));
        group.sample_size(10);
        for (label, strat) in [
            ("hash", MxmStrategy::Hash),
            ("dense", MxmStrategy::Dense),
            ("auto", MxmStrategy::Auto),
        ] {
            group.bench_function(BenchmarkId::new(label, a.nvals()), |b| {
                b.iter(|| mxm(&sr, a, a, &MaskCsr::All, strat).nvals())
            });
        }
        group.finish();
    }
}

fn bench_masked_scatter_vs_dot(c: &mut Criterion) {
    // a very sparse mask over a heavy product: dot form touches only
    // admitted positions while scatter still sweeps all flops
    let g = rmat(11, 12, RmatParams::default(), 3)
        .dedup()
        .without_self_loops();
    let a = to_csr(&g, 3);
    let at = a.transpose();
    let n = g.n;
    let sr = plus_times::<f64>();

    let mut group = c.benchmark_group("ablation_spgemm/masked_form");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for mask_rows in [n / 256, n / 16, n] {
        let mut tuples: Vec<(usize, usize, bool)> = (0..mask_rows.max(1))
            .map(|k| ((k * 131) % n, (k * 197) % n, true))
            .collect();
        tuples.sort_by_key(|t| (t.0, t.1));
        tuples.dedup_by_key(|t| (t.0, t.1));
        let mask_src = Csr::from_sorted_tuples(n, n, tuples);
        let mask = MaskCsr::from_csr(&mask_src, true, false);
        let pattern = mask_src.map(|_| ());
        let nnz = mask_src.nvals();

        group.bench_function(BenchmarkId::new("scatter_masked", nnz), |b| {
            b.iter(|| mxm(&sr, &a, &a, &mask, MxmStrategy::Auto).nvals())
        });
        group.bench_function(BenchmarkId::new("dot_masked", nnz), |b| {
            b.iter(|| mxm_dot(&sr, &a, &at, &pattern).nvals())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_masked_scatter_vs_dot);
criterion_main!(benches);
