//! # graphblas-reference
//!
//! Classic, adjacency-list implementations of the graph algorithms the
//! GraphBLAS reproduction builds in the language of linear algebra —
//! the comparison baselines of the benchmark harness and the oracles of
//! the cross-validation tests:
//!
//! * [`bc::brandes`] — Brandes' betweenness centrality (the paper's
//!   reference \[9\] and the algorithm Figure 3 re-expresses);
//! * [`traversal::bfs_levels`] / [`traversal::bfs_parents`];
//! * [`paths::bellman_ford`] / [`paths::dijkstra`];
//! * [`triangles::triangle_count`] (node-iterator);
//! * [`pagerank::pagerank`];
//! * [`components::connected_components`] (union-find);
//! * [`fig2`] — a dense `Option<T>` interpreter of Figure 2's
//!   compute / accumulate / masked-write steps, the oracle of the core
//!   operations.
//!
//! No dependency on `graphblas-core`: these are deliberately independent
//! implementations.

pub mod bc;
pub mod centrality;
pub mod components;
pub mod fig2;
pub mod pagerank;
pub mod paths;
pub mod traversal;
pub mod triangles;

/// An unweighted directed graph as sorted adjacency lists.
#[derive(Debug, Clone)]
pub struct AdjGraph {
    pub n: usize,
    pub adj: Vec<Vec<usize>>,
}

impl AdjGraph {
    /// Build from a directed edge list (duplicates removed).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        AdjGraph { n, adj }
    }

    /// Build from adjacency lists (sorted and deduped on entry).
    pub fn from_adjacency(adj: Vec<Vec<usize>>) -> Self {
        let n = adj.len();
        let mut adj = adj;
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        AdjGraph { n, adj }
    }

    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum()
    }

    /// The reverse graph.
    pub fn reversed(&self) -> AdjGraph {
        let mut adj = vec![Vec::new(); self.n];
        for (u, l) in self.adj.iter().enumerate() {
            for &v in l {
                adj[v].push(u);
            }
        }
        AdjGraph::from_adjacency(adj)
    }
}

/// A weighted directed graph as adjacency lists of `(neighbor, weight)`.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    pub n: usize,
    pub adj: Vec<Vec<(usize, f64)>>,
}

impl WeightedGraph {
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            adj[u].push((v, w));
        }
        for l in &mut adj {
            l.sort_unstable_by_key(|e| e.0);
        }
        WeightedGraph { n, adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_dedups_and_sorts() {
        let g = AdjGraph::from_edges(3, &[(0, 2), (0, 1), (0, 2), (2, 0)]);
        assert_eq!(g.adj[0], vec![1, 2]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn reversal() {
        let g = AdjGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = g.reversed();
        assert_eq!(r.adj[1], vec![0]);
        assert_eq!(r.adj[2], vec![1]);
        assert!(r.adj[0].is_empty());
    }

    #[test]
    fn weighted_build() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 2.5)]);
        assert_eq!(g.adj[0], vec![(1, 2.5)]);
    }
}
