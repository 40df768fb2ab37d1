//! The named-graph registry: each entry owns a Boolean adjacency
//! [`Matrix`] shared by every request that names it.
//!
//! Point writes (`EDGE+` / `EDGE-`) go straight to [`Matrix::set`] /
//! [`Matrix::remove`], i.e. into the engine's pending-update delta log
//! — O(1) amortized appends. Sealed runs are folded into the backing
//! store by the engine's windowed background flush (and compacted
//! LSM-style when they pile up), while readers take O(1) MVCC
//! snapshots and merge `(base, sealed runs)` lazily on their own
//! nodes. That is what keeps write latency flat under heavy read
//! traffic: a burst of inserts never rewrites the CSR once per edge,
//! and queries never force a drain of the writers' log.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use graphblas_core::prelude::*;

/// One named graph: a square Boolean adjacency matrix.
pub struct GraphEntry {
    pub name: String,
    pub nodes: usize,
    pub matrix: Matrix<bool>,
}

/// Concurrent name → graph map. Reads (every data request) take the
/// read lock only long enough to clone the `Arc`.
#[derive(Default)]
pub struct Registry {
    map: RwLock<HashMap<String, Arc<GraphEntry>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Create an empty graph. Errors if the name is taken or the size
    /// is zero (matrix dimensions must be positive). `tiles` shards the
    /// adjacency into a 2D tile grid up front (clamped to the matrix
    /// dimensions), so every later point write drains tile-granularly;
    /// traversals read the grid's assembled row and column views.
    pub fn create(
        &self,
        name: &str,
        nodes: usize,
        tiles: Option<(usize, usize)>,
    ) -> std::result::Result<(), String> {
        if nodes == 0 {
            return Err("graph must have at least one node".into());
        }
        let matrix = Matrix::<bool>::new(nodes, nodes).map_err(|e| e.to_string())?;
        if let Some((r, c)) = tiles {
            matrix.set_tile_shape(r, c).map_err(|e| e.to_string())?;
        }
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            return Err(format!("graph {name:?} already exists"));
        }
        map.insert(
            name.to_string(),
            Arc::new(GraphEntry {
                name: name.to_string(),
                nodes,
                matrix,
            }),
        );
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Every registered graph (STATS introspection).
    pub fn entries(&self) -> Vec<Arc<GraphEntry>> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_and_duplicate() {
        let r = Registry::new();
        r.create("web", 10, None).unwrap();
        assert!(r.get("web").is_some());
        assert_eq!(r.get("web").unwrap().nodes, 10);
        assert!(r.get("nope").is_none());
        assert!(r.create("web", 5, None).is_err());
        assert!(r.create("zero", 0, None).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn tiled_create_shards_the_adjacency() {
        let r = Registry::new();
        r.create("t", 16, Some((4, 4))).unwrap();
        let g = r.get("t").unwrap();
        assert_eq!(g.matrix.tile_shape(), Some((4, 4)));
        // writes and reads work exactly as on a slab graph; the write
        // flushes into the one tile it lands in
        graphblas_core::exec::take_notes();
        g.matrix.set(1, 13, true).unwrap();
        assert_eq!(g.matrix.get(1, 13).unwrap(), Some(true));
        assert_eq!(graphblas_core::exec::take_notes().tiles, vec![(0, 3)]);
        // a grid wider than the matrix is rejected like any bad option
        assert!(r.create("bad", 4, Some((0, 2))).is_err());
    }

    #[test]
    fn point_writes_land_in_the_delta_log() {
        let r = Registry::new();
        r.create("g", 4, None).unwrap();
        let g = r.get("g").unwrap();
        g.matrix.set(0, 1, true).unwrap();
        g.matrix.set(1, 2, true).unwrap();
        assert_eq!(g.matrix.nvals().unwrap(), 2);
        g.matrix.remove(0, 1).unwrap();
        assert_eq!(g.matrix.get(0, 1).unwrap(), None);
    }
}
