//! Experiment E6: the polymorphic storage engine (`storage::engine`).
//!
//! Series:
//! * `e6/hyper_mxm` — C = A·A on a hypersparse square (nnz ≪ nrows):
//!   the hypersparse kernel walks only non-empty rows while CSR pays
//!   O(nrows) regardless.
//! * `e6/bc_policy` — the Figure 3 `BC_update` kernel with the
//!   adjacency under Auto selection vs pinned CSR: the policy must not
//!   tax a workload whose natural format *is* CSR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_algorithms::bc_update;
use graphblas_bench::{int_matrix, rmat_graph};
use graphblas_core::prelude::*;
use std::time::Duration;

fn bench_hyper_mxm(c: &mut Criterion) {
    // 1<<17 rows, entries confined to 128 of them: nnz ≪ nrows. The
    // hypersparse kernel's row loop is O(non-empty rows); CSR's is
    // O(nrows).
    let n = 1 << 17;
    let active = 128usize;
    let per_row = 8usize;
    let tuples: Vec<(usize, usize, f64)> = (0..active)
        .flat_map(|k| {
            let i = k * (n / active);
            (0..per_row).map(move |e| (i, (i + e * 31) % n, 1.0))
        })
        .collect();
    let ctx = Context::blocking();
    let d = Descriptor::default();

    let mut group = c.benchmark_group("e6/hyper_mxm");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for (label, format) in [
        ("csr", Some(Format::Csr)),
        ("hyper", Some(Format::Hyper)),
        ("auto", None),
    ] {
        let a = Matrix::from_tuples(n, n, &tuples).unwrap();
        match format {
            Some(f) => a.set_format(f).unwrap(),
            None => a.set_format_policy(FormatPolicy::Auto),
        }
        a.wait().unwrap();
        group.bench_function(BenchmarkId::new(label, "n17_nnz1k"), |b| {
            b.iter(|| {
                let out = Matrix::<f64>::new(n, n).unwrap();
                ctx.mxm(&out, NoMask, NoAccum, plus_times::<f64>(), &a, &a, &d)
                    .unwrap();
                out.nvals().unwrap()
            })
        });
    }
    group.finish();
}

fn bench_bc_policy(c: &mut Criterion) {
    let scale = 10;
    let g = rmat_graph(scale);
    let sources: Vec<Index> = (0..32).collect();
    let ctx = Context::blocking();

    let mut group = c.benchmark_group("e6/bc_policy");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for (label, policy) in [
        ("auto", FormatPolicy::Auto),
        ("forced_csr", FormatPolicy::Force(Format::Csr)),
    ] {
        let a = int_matrix(&g);
        a.set_format_policy(policy);
        if let FormatPolicy::Force(f) = policy {
            a.set_format(f).unwrap();
        }
        a.wait().unwrap();
        group.bench_function(BenchmarkId::new(label, scale), |b| {
            b.iter(|| {
                let delta = bc_update(&ctx, &a, &sources).unwrap();
                delta.nvals().unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hyper_mxm, bench_bc_policy);
criterion_main!(benches);
