//! 2D-tiled storage: a grid of CSR blocks behind one [`MatrixStore`].
//!
//! The tiled layout (the "parallel hypersparse" direction of GraphBLAS
//! Mathematical Opportunities, and the 2D decompositions of the CombBLAS
//! line of work) splits the index space into a `grid_rows × grid_cols`
//! grid of *local-indexed* blocks, each an ordinary CSR [`MatrixStore`].
//! An empty tile holds no storage at all. The tile is the unit of the
//! delta flush: pending runs are partitioned per tile and only dirty
//! tiles are re-merged (`kernel::merge::merge_into_store`), so every
//! clean tile keeps its `Arc`.
//!
//! No kernel reads the tiles: they read the store's memoized row and
//! column views, which [`Tiled::to_csr`] assembles by concatenating each
//! stripe's tile rows left to right, so a tiled value answers every
//! operation bitwise as its slab does.

use std::sync::Arc;

use crate::index::Index;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::MatrixStore;

/// A 2D grid of local-indexed storage blocks holding one matrix value.
#[derive(Debug)]
pub struct Tiled<T> {
    nrows: Index,
    ncols: Index,
    grid_rows: usize,
    grid_cols: usize,
    /// Row span of every stripe but possibly the last (`⌈nrows/grid_rows⌉`).
    tile_nrows: Index,
    /// Column span of every tile column but possibly the last.
    tile_ncols: Index,
    /// `grid_rows * grid_cols` blocks, row-major; `None` = empty tile
    /// (no storage at all — the hypersparse idea applied to the grid).
    tiles: Vec<Option<Arc<MatrixStore<T>>>>,
    nvals: usize,
}

impl<T> Clone for Tiled<T> {
    fn clone(&self) -> Self {
        Tiled {
            nrows: self.nrows,
            ncols: self.ncols,
            grid_rows: self.grid_rows,
            grid_cols: self.grid_cols,
            tile_nrows: self.tile_nrows,
            tile_ncols: self.tile_ncols,
            tiles: self.tiles.clone(),
            nvals: self.nvals,
        }
    }
}

/// Clamp a requested grid to the shape: at least one tile per axis, and
/// never more tiles than rows/columns.
pub fn clamp_grid(nrows: Index, ncols: Index, grid: (usize, usize)) -> (usize, usize) {
    (
        grid.0.max(1).min(nrows.max(1)),
        grid.1.max(1).min(ncols.max(1)),
    )
}

impl<T: Scalar> Tiled<T> {
    /// Partition a CSR slab into a `grid` of CSR blocks. Only populated
    /// tiles allocate: a tile's row pointers start at the first row that
    /// reaches it, so an empty grid costs one `None` per tile.
    pub fn from_csr(csr: &Csr<T>, grid: (usize, usize)) -> Self {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        let (gr, gc) = clamp_grid(nrows, ncols, grid);
        let tile_nrows = nrows.div_ceil(gr);
        let tile_ncols = ncols.div_ceil(gc);
        let mut tiles: Vec<Option<Arc<MatrixStore<T>>>> = Vec::with_capacity(gr * gc);
        for ti in 0..gr {
            let r0 = (ti * tile_nrows).min(nrows);
            let r1 = ((ti + 1) * tile_nrows).min(nrows);
            // one pass over the stripe's rows splits each sorted row into
            // per-tile local-column segments, preserving order; `live`
            // lists the tiles reached so far, whose row pointers advance
            let mut parts = vec![None; gc];
            let mut live: Vec<usize> = Vec::new();
            for r in r0..r1 {
                let (cols, vals) = csr.row(r);
                for (j, v) in cols.iter().zip(vals) {
                    let tj = j / tile_ncols;
                    let part = parts[tj].get_or_insert_with(|| {
                        live.push(tj);
                        (vec![0; r - r0 + 1], Vec::new(), Vec::new())
                    });
                    part.1.push(j - tj * tile_ncols);
                    part.2.push(v.clone());
                }
                for &tj in &live {
                    let part = parts[tj].as_mut().expect("live tiles have parts");
                    part.0.push(part.1.len());
                }
            }
            for (tj, part) in parts.into_iter().enumerate() {
                tiles.push(part.map(|(row_ptr, col_idx, vals)| {
                    let c1 = ((tj + 1) * tile_ncols).min(ncols);
                    let block =
                        Csr::from_parts(r1 - r0, c1 - tj * tile_ncols, row_ptr, col_idx, vals);
                    Arc::new(MatrixStore::csr(block))
                }));
            }
        }
        Self::from_tiles(nrows, ncols, (gr, gc), tiles)
    }

    /// Assemble from an existing grid of blocks (the tile-granular flush
    /// path: clean tiles keep their `Arc` — and with it every memoized
    /// view and property cache).
    pub fn from_tiles(
        nrows: Index,
        ncols: Index,
        grid: (usize, usize),
        tiles: Vec<Option<Arc<MatrixStore<T>>>>,
    ) -> Self {
        let (gr, gc) = clamp_grid(nrows, ncols, grid);
        debug_assert_eq!(tiles.len(), gr * gc);
        let nvals = tiles.iter().flatten().map(|t| t.nvals()).sum();
        Tiled {
            nrows,
            ncols,
            grid_rows: gr,
            grid_cols: gc,
            tile_nrows: nrows.div_ceil(gr),
            tile_ncols: ncols.div_ceil(gc),
            tiles,
            nvals,
        }
    }

    #[inline]
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    #[inline]
    pub fn nvals(&self) -> usize {
        self.nvals
    }

    /// `(grid_rows, grid_cols)`.
    #[inline]
    pub fn grid(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// `(tile_nrows, tile_ncols)`: the span of every non-edge tile.
    #[inline]
    pub fn tile_span(&self) -> (Index, Index) {
        (self.tile_nrows, self.tile_ncols)
    }

    /// The block at grid position `(ti, tj)`, if it holds any elements.
    #[inline]
    pub fn tile(&self, ti: usize, tj: usize) -> Option<&Arc<MatrixStore<T>>> {
        self.tiles[ti * self.grid_cols + tj].as_ref()
    }

    /// All blocks, row-major over the grid (the flush path's input).
    #[inline]
    pub fn tiles(&self) -> &[Option<Arc<MatrixStore<T>>>] {
        &self.tiles
    }

    /// Global index bounds `(r0, r1, c0, c1)` of tile `(ti, tj)`.
    pub fn tile_bounds(&self, ti: usize, tj: usize) -> (Index, Index, Index, Index) {
        (
            (ti * self.tile_nrows).min(self.nrows),
            ((ti + 1) * self.tile_nrows).min(self.nrows),
            (tj * self.tile_ncols).min(self.ncols),
            ((tj + 1) * self.tile_ncols).min(self.ncols),
        )
    }

    /// The stripe (tile row) holding global row `i`.
    #[inline]
    pub fn stripe_of(&self, i: Index) -> usize {
        i / self.tile_nrows
    }

    /// The tile column holding global column `j`.
    #[inline]
    pub fn tile_col_of(&self, j: Index) -> usize {
        j / self.tile_ncols
    }

    /// Point probe in tile-local coordinates.
    pub fn get(&self, i: Index, j: Index) -> Option<&T> {
        let (ti, tj) = (self.stripe_of(i), self.tile_col_of(j));
        self.tile(ti, tj)?
            .get(i - ti * self.tile_nrows, j - tj * self.tile_ncols)
    }

    /// Reassemble the single-slab CSR: per global row, concatenate the
    /// stripe's tile rows left-to-right with column offsets — ascending
    /// global column order by construction.
    pub fn to_csr(&self) -> Csr<T> {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::with_capacity(self.nvals);
        let mut vals = Vec::with_capacity(self.nvals);
        for ti in 0..self.grid_rows {
            let (r0, r1, _, _) = self.tile_bounds(ti, 0);
            let views: Vec<(Index, Arc<Csr<T>>)> = (0..self.grid_cols)
                .filter_map(|tj| {
                    self.tile(ti, tj)
                        .map(|s| (tj * self.tile_ncols, s.row_csr()))
                })
                .collect();
            for r in r0..r1 {
                for (offset, view) in &views {
                    let (cols, vv) = view.row(r - r0);
                    col_idx.extend(cols.iter().map(|j| offset + j));
                    vals.extend_from_slice(vv);
                }
                row_ptr[r + 1] = col_idx.len();
            }
        }
        Csr::from_parts(self.nrows, self.ncols, row_ptr, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: Index, m: Index, step: usize) -> Csr<i64> {
        let mut tuples = Vec::new();
        for k in (0..n * m).step_by(step) {
            tuples.push((k / m, k % m, k as i64));
        }
        Csr::from_sorted_tuples(n, m, tuples)
    }

    #[test]
    fn roundtrip_preserves_content() {
        for grid in [(1, 1), (2, 2), (3, 4), (7, 7), (100, 100)] {
            let csr = sample(7, 9, 3);
            let t = Tiled::from_csr(&csr, grid);
            assert_eq!(t.nvals(), csr.nvals(), "{grid:?}");
            assert_eq!(t.to_csr(), csr, "{grid:?}");
        }
    }

    #[test]
    fn grid_is_clamped_to_shape() {
        let csr = sample(3, 2, 1);
        let t = Tiled::from_csr(&csr, (100, 100));
        assert_eq!(t.grid(), (3, 2));
        let t = Tiled::from_csr(&csr, (0, 0));
        assert_eq!(t.grid(), (1, 1));
    }

    #[test]
    fn point_probes_hit_the_right_tile() {
        let csr = sample(6, 6, 1);
        let t = Tiled::from_csr(&csr, (2, 3));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(t.get(i, j), csr.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_tiles_hold_no_storage() {
        // content confined to the top-left quadrant
        let csr = Csr::from_sorted_tuples(8, 8, vec![(0, 0, 1i64), (1, 3, 2), (3, 1, 3)]);
        let t = Tiled::from_csr(&csr, (2, 2));
        assert!(t.tile(0, 0).is_some());
        assert!(t.tile(0, 1).is_none());
        assert!(t.tile(1, 0).is_none());
        assert!(t.tile(1, 1).is_none());
        // an empty value cut into the widest grid allocates no tile
        let empty = Tiled::from_csr(&Csr::<i64>::empty(20_000, 20_000), (64, 64));
        assert!(empty.tiles().iter().all(Option::is_none));
    }
}
