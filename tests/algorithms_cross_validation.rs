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
    nb.wait().unwrap();
}
