//! Cross-validation of every `graphblas-algorithms` routine against its
//! independent `graphblas-reference` baseline over generated graphs.

use graphblas_algorithms as alg;
use graphblas_core::prelude::*;
use graphblas_gen::{erdos_renyi_gnm, grid2d, rmat, EdgeList, RmatParams};
use graphblas_reference as refr;
use graphblas_reference::{AdjGraph, WeightedGraph};

fn bool_matrix(g: &EdgeList) -> Matrix<bool> {
    Matrix::from_tuples(g.n, g.n, &g.bool_tuples()).unwrap()
}

fn test_graphs() -> Vec<EdgeList> {
    vec![
        erdos_renyi_gnm(30, 90, 1).without_self_loops().dedup(),
        erdos_renyi_gnm(50, 100, 2).without_self_loops().dedup(),
        rmat(6, 6, RmatParams::default(), 3)
            .without_self_loops()
            .dedup(),
        grid2d(5, 6),
        EdgeList::new(10, vec![(0, 1), (1, 2), (5, 6)]),
    ]
}

#[test]
fn bfs_levels_match() {
    let ctx = Context::blocking();
    for g in test_graphs() {
        let a = bool_matrix(&g);
        let adj = AdjGraph::from_edges(g.n, &g.edges);
        for src in [0, g.n / 2, g.n - 1] {
            assert_eq!(
                alg::bfs_levels(&ctx, &a, src).unwrap(),
                refr::traversal::bfs_levels(&adj, src),
                "graph n={} src={src}",
                g.n
            );
        }
    }
}

#[test]
fn bfs_parents_match_min_id_tie_breaking() {
    let ctx = Context::blocking();
    for g in test_graphs() {
        let a = bool_matrix(&g);
        let adj = AdjGraph::from_edges(g.n, &g.edges);
        let src = 0;
        assert_eq!(
            alg::bfs_parents(&ctx, &a, src).unwrap(),
            refr::traversal::bfs_parents(&adj, src),
            "graph n={}",
            g.n
        );
    }
}

#[test]
fn sssp_matches_dijkstra() {
    let ctx = Context::blocking();
    for (k, g) in test_graphs().into_iter().enumerate() {
        let wt = g.weighted_tuples(0.5, 5.0, 100 + k as u64);
        let a = Matrix::from_tuples(g.n, g.n, &wt).unwrap();
        let wg = WeightedGraph::from_edges(g.n, &wt);
        let got = alg::sssp_bellman_ford(&ctx, &a, 0).unwrap();
        let want = refr::paths::dijkstra(&wg, 0);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            match (x, y) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "vertex {i}"),
                (None, None) => {}
                other => panic!("vertex {i}: {other:?}"),
            }
        }
    }
}

/// Bellman–Ford as it ran before the changed-distance frontier: every
/// round relaxes from all of `dist` and compares the whole vector with
/// the last round. The GraphBLAS oracle `sssp_bellman_ford` must match
/// bit for bit, round count and negative-cycle verdict included.
fn sssp_all_of_dist(ctx: &Context, a: &Matrix<f64>, src: Index) -> Result<Vec<Option<f64>>> {
    let n = a.nrows();
    let dist = Vector::from_tuples(n, &[(src, 0.0f64)])?;
    let relaxed = Vector::<f64>::new(n)?;
    let mut prev = dist.extract_tuples()?;
    for round in 0..n {
        ctx.vxm(
            &relaxed,
            NoMask,
            NoAccum,
            min_plus::<f64>(),
            &dist,
            a,
            &Descriptor::default().replace(),
        )?;
        ctx.ewise_add_vector(
            &dist,
            NoMask,
            NoAccum,
            Min::<f64>::new(),
            &dist,
            &relaxed,
            &Descriptor::default(),
        )?;
        let cur = dist.extract_tuples()?;
        if cur == prev {
            let mut out = vec![None; n];
            for (i, d) in cur {
                out[i] = Some(d);
            }
            return Ok(out);
        }
        if round == n - 1 {
            return Err(Error::InvalidValue(
                "negative cycle reachable from source".into(),
            ));
        }
        prev = cur;
    }
    unreachable!("loop returns or errors")
}

fn dist_bits(d: &[Option<f64>]) -> Vec<Option<u64>> {
    d.iter().map(|x| x.map(f64::to_bits)).collect()
}

fn assert_close(got: &[Option<f64>], want: &[Option<f64>], what: &str) {
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        match (x, y) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{what}: vertex {i}"),
            (None, None) => {}
            other => panic!("{what}: vertex {i}: {other:?}"),
        }
    }
}

/// Weights in `[lo, hi)` with every third edge set to zero.
fn weights_with_zeros(g: &EdgeList, lo: f64, hi: f64, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut wt = g.weighted_tuples(lo, hi, seed);
    for e in wt.iter_mut().step_by(3) {
        e.2 = 0.0;
    }
    wt
}

#[test]
fn sssp_matches_the_all_of_dist_loop_bitwise() {
    let ctx = Context::blocking();
    for (k, g) in test_graphs().into_iter().enumerate() {
        // zero-weight edges, cycles included
        let cyclic = weights_with_zeros(&g, 0.0, 5.0, 200 + k as u64);
        // negative edges, made acyclic by orienting every edge upward
        let dag = EdgeList::new(
            g.n,
            g.edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect(),
        )
        .dedup();
        let negative = weights_with_zeros(&dag, -3.0, 5.0, 300 + k as u64);
        for wt in [cyclic, negative] {
            let a = Matrix::from_tuples(g.n, g.n, &wt).unwrap();
            let wg = WeightedGraph::from_edges(g.n, &wt);
            for src in [0, g.n / 2, g.n - 1] {
                let got = alg::sssp_bellman_ford(&ctx, &a, src).unwrap();
                let want = sssp_all_of_dist(&ctx, &a, src).unwrap();
                assert_eq!(dist_bits(&got), dist_bits(&want), "n={} src={src}", g.n);
                let reference = refr::paths::bellman_ford(&wg, src).unwrap();
                assert_close(&got, &reference, &format!("n={} src={src}", g.n));
            }
        }
    }
}

#[test]
fn sssp_negative_cycles_error_only_when_reachable() {
    let ctx = Context::blocking();
    // 0 -> 1 -> 2 -> 3, and the cycle 4 -> 5 -> 6 -> 4 of weight -1
    // reached from 3 only through the edge 3 -> 4
    let base = vec![
        (0, 1, 1.0),
        (1, 2, 2.0),
        (2, 3, -1.0),
        (4, 5, 1.0),
        (5, 6, -3.0),
        (6, 4, 1.0),
    ];
    let mut reached = base.clone();
    reached.push((3, 4, 0.5));
    for (edges, cycle_reached) in [(base, false), (reached, true)] {
        let a = Matrix::from_tuples(7, 7, &edges).unwrap();
        let wg = WeightedGraph::from_edges(7, &edges);
        let got = alg::sssp_bellman_ford(&ctx, &a, 0);
        let oracle = sssp_all_of_dist(&ctx, &a, 0);
        let reference = refr::paths::bellman_ford(&wg, 0);
        assert_eq!(got.is_err(), cycle_reached);
        assert_eq!(oracle.is_err(), cycle_reached);
        assert_eq!(reference.is_err(), cycle_reached);
        if !cycle_reached {
            let got = got.unwrap();
            assert_eq!(dist_bits(&got), dist_bits(&oracle.unwrap()));
            assert_eq!(got, reference.unwrap());
            assert_eq!(&got[4..], &[None, None, None]);
        }
    }
    // a negative self-loop on the source is a cycle at n = 1
    let a = Matrix::from_tuples(1, 1, &[(0, 0, -1.0)]).unwrap();
    assert!(alg::sssp_bellman_ford(&ctx, &a, 0).is_err());
    assert!(sssp_all_of_dist(&ctx, &a, 0).is_err());
}

#[test]
fn sssp_from_a_source_without_out_edges() {
    let ctx = Context::blocking();
    // vertex 3 only has in-edges
    let edges = vec![(0, 3, 2.0), (1, 3, 1.0), (2, 0, 4.0)];
    let a = Matrix::from_tuples(4, 4, &edges).unwrap();
    let got = alg::sssp_bellman_ford(&ctx, &a, 3).unwrap();
    assert_eq!(got, vec![None, None, None, Some(0.0)]);
    assert_eq!(
        dist_bits(&got),
        dist_bits(&sssp_all_of_dist(&ctx, &a, 3).unwrap())
    );
    let wg = WeightedGraph::from_edges(4, &edges);
    assert_eq!(got, refr::paths::bellman_ford(&wg, 3).unwrap());
}

#[test]
fn triangles_match() {
    let ctx = Context::blocking();
    for g in test_graphs() {
        let und = g.symmetrize().without_self_loops();
        let a = bool_matrix(&und);
        let adj = AdjGraph::from_edges(und.n, &und.edges);
        assert_eq!(
            alg::triangle_count(&ctx, &a).unwrap(),
            refr::triangles::triangle_count(&adj),
            "n={}",
            und.n
        );
        let got = alg::triangle_counts_per_vertex(&ctx, &a).unwrap();
        let want = refr::triangles::triangle_counts_per_vertex(&adj);
        assert_eq!(got, want);
        // the total and the per-vertex counts take different products
        assert_eq!(
            alg::triangle_count(&ctx, &a).unwrap(),
            got.iter().sum::<u64>() / 3
        );
    }
}

#[test]
fn pagerank_matches() {
    let ctx = Context::blocking();
    let mut graphs = test_graphs();
    // no dangling vertex, and nothing but dangling vertices
    graphs.push(EdgeList::new(7, (0..7).map(|i| (i, (i + 1) % 7)).collect()));
    graphs.push(EdgeList::new(9, Vec::new()));
    for g in graphs {
        let a = bool_matrix(&g);
        let adj = AdjGraph::from_edges(g.n, &g.edges);
        for tol in [1e-8, 1e-12] {
            let (got, got_iters) = alg::pagerank(&ctx, &a, 0.85, tol, 300).unwrap();
            let (want, want_iters) = refr::pagerank::pagerank(&adj, 0.85, tol, 300);
            assert_eq!(got_iters, want_iters, "n={} tol={tol}", g.n);
            for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                assert!((x - y).abs() < 1e-8, "vertex {i}: {x} vs {y}");
            }
        }
    }
}

#[test]
fn components_match() {
    let ctx = Context::blocking();
    let mut graphs = test_graphs();
    // a path is the worst round count; isolated vertices never change
    graphs.push(EdgeList::new(200, (0..199).map(|i| (i, i + 1)).collect()));
    graphs.push(EdgeList::new(300, vec![(7, 250), (120, 121)]));
    for g in graphs {
        let und = g.symmetrize();
        let a = bool_matrix(&und);
        let adj = AdjGraph::from_edges(und.n, &und.edges);
        assert_eq!(
            alg::connected_components(&ctx, &a).unwrap(),
            refr::components::connected_components(&adj),
            "n={}",
            und.n
        );
    }
}

#[test]
fn reachability_matches_bfs() {
    let ctx = Context::blocking();
    for g in test_graphs() {
        let a = bool_matrix(&g);
        let adj = AdjGraph::from_edges(g.n, &g.edges);
        let got = alg::reachable_set(&ctx, &a, 0).unwrap();
        let want: Vec<usize> = refr::traversal::bfs_levels(&adj, 0)
            .into_iter()
            .enumerate()
            .filter(|&(v, l)| l.is_some() && v != 0)
            .map(|(v, _)| v)
            .collect();
        // reachable_set excludes the source unless on a cycle
        let got_no_src: Vec<usize> = got.into_iter().filter(|&v| v != 0).collect();
        assert_eq!(got_no_src, want, "n={}", g.n);
    }
}

#[test]
fn closeness_matches() {
    let ctx = Context::blocking();
    for g in test_graphs() {
        let a = bool_matrix(&g);
        let adj = AdjGraph::from_edges(g.n, &g.edges);
        let got = alg::closeness_centrality(&ctx, &a, 8).unwrap();
        let want = refr::centrality::closeness_centrality(&adj);
        for (v, (x, y)) in got.iter().zip(&want).enumerate() {
            assert!((x - y).abs() < 1e-12, "vertex {v}: {x} vs {y}");
        }
    }
}

#[test]
fn k_core_matches() {
    let ctx = Context::blocking();
    for g in test_graphs() {
        let und = g.symmetrize().without_self_loops();
        let a = bool_matrix(&und);
        let adj = AdjGraph::from_edges(und.n, &und.edges);
        for k in [1u64, 2, 3] {
            let (_, members) = alg::k_core(&ctx, &a, k).unwrap();
            let want = refr::centrality::k_core_members(&adj, k as usize);
            assert_eq!(members, want, "n={} k={k}", und.n);
        }
        assert_eq!(
            alg::cores::core_numbers(&ctx, &a).unwrap(),
            refr::centrality::core_numbers(&adj)
                .into_iter()
                .map(|x| x as u64)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn mis_is_valid_on_generated_graphs() {
    let ctx = Context::blocking();
    for (k, g) in test_graphs().into_iter().enumerate() {
        let und = g.symmetrize().without_self_loops();
        let a = bool_matrix(&und);
        let mis = alg::maximal_independent_set(&ctx, &a, k as u64).unwrap();
        let in_set: std::collections::BTreeSet<usize> = mis.iter().copied().collect();
        for &(u, v) in &und.edges {
            assert!(!(in_set.contains(&u) && in_set.contains(&v)));
        }
        // maximality
        for v in 0..und.n {
            if !in_set.contains(&v) {
                let has_neighbor_in = und
                    .edges
                    .iter()
                    .any(|&(a2, b)| a2 == v && in_set.contains(&b));
                assert!(has_neighbor_in, "vertex {v} could join the set");
            }
        }
    }
}

#[test]
fn nonblocking_algorithms_agree() {
    let b = Context::blocking();
    let nb = Context::nonblocking();
    let g = erdos_renyi_gnm(25, 75, 17).without_self_loops().dedup();
    let a = bool_matrix(&g);
    assert_eq!(
        alg::bfs_levels(&b, &a, 0).unwrap(),
        alg::bfs_levels(&nb, &a, 0).unwrap()
    );
    let wt = g.weighted_tuples(0.5, 5.0, 18);
    let aw = Matrix::from_tuples(g.n, g.n, &wt).unwrap();
    let und = g.symmetrize().without_self_loops();
    let au = bool_matrix(&und);
    assert_eq!(
        alg::triangle_count(&b, &au).unwrap(),
        alg::triangle_count(&nb, &au).unwrap()
    );
    assert_eq!(
        alg::connected_components(&b, &au).unwrap(),
        alg::connected_components(&nb, &au).unwrap()
    );
    assert_eq!(
        alg::pagerank(&b, &a, 0.85, 1e-10, 100).unwrap(),
        alg::pagerank(&nb, &a, 0.85, 1e-10, 100).unwrap()
    );
    let (db, dnb) = (
        alg::sssp_bellman_ford(&b, &aw, 0).unwrap(),
        alg::sssp_bellman_ford(&nb, &aw, 0).unwrap(),
    );
    assert_eq!(dist_bits(&db), dist_bits(&dnb));
    nb.wait().unwrap();
}
