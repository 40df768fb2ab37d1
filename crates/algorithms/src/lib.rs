//! # graphblas-algorithms
//!
//! Graph algorithms written against the GraphBLAS API of
//! `graphblas-core` — headlined by [`bc::bc_update`], the line-by-line
//! port of the paper's Figure 3 batched betweenness-centrality kernel,
//! plus the classic suite the GraphBLAS is designed to express:
//!
//! * [`bc`] — batched Brandes betweenness centrality (Figure 3)
//! * [`bfs`] — BFS levels and parent trees (`lor.land`, `min.first`)
//! * [`sssp`] — Bellman–Ford SSSP relaxing only the distances that
//!   changed, and min-plus APSP (tropical semiring)
//! * [`triangles`] — masked-`mxm` triangle counting (`plus_pair`):
//!   Sandia `C<L> = L·L` for the total, Burkhardt `C<A> = A·A` per edge
//! * [`mis`] — Luby's maximal independent set (randomized, masked)
//! * [`mod@pagerank`] — power iteration over the arithmetic semiring,
//!   one `vxm` per step on cached out-degrees
//! * [`components`] — min-label propagation connected components,
//!   pushing only the labels that changed
//! * [`reach`] — transitive closure (`lor.land`) and GF2 walk parity
//!
//! Every algorithm takes an explicit [`Context`](graphblas_core::Context)
//! and works identically in blocking and nonblocking modes.

pub mod bc;
pub mod bfs;
pub mod closeness;
pub mod components;
pub mod cores;
pub mod mis;
pub mod pagerank;
pub mod reach;
pub mod sssp;
pub mod triangles;

pub use bc::{bc_update, betweenness};
pub use bfs::{bfs_levels, bfs_multi, bfs_parents};
pub use closeness::{closeness_centrality, multi_source_bfs_levels};
pub use components::{connected_components, num_components};
pub use cores::{core_numbers, k_core};
pub use mis::maximal_independent_set;
pub use pagerank::pagerank;
pub use reach::{reachable_set, transitive_closure, walk_parity};
pub use sssp::{apsp_min_plus, sssp_bellman_ford};
pub use triangles::{k_truss, triangle_count, triangle_counts_per_vertex};
