//! PR acceptance property for 2D-tiled storage (`storage::tiled`): a
//! matrix sharded into a tile grid answers **bitwise** identically —
//! values *and* pattern, NaN / ±∞ / -0.0 payloads included — to the
//! same matrix stored as a single slab, across execution modes
//! {blocking, nonblocking-sequential, nonblocking-parallel}, tile
//! grids {1×1, 2×2, 4×4}, and intra-kernel parallelism degrees
//! {1, 2, 8}. Tiling is a storage-only decision: no kernel result, no
//! delta-log drain, and no snapshot read may observe it.

mod common;

use common::{at_degree, contexts, fval, matrix_bits, sparse, to_matrix, to_vector, vector_bits};
use graphblas_core::exec::take_notes;
use graphblas_core::prelude::*;
use proptest::prelude::*;

const N: usize = 24;
const DEGREES: [usize; 3] = [1, 2, 8];
const GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `vxm` and `mxv` over a tiled operand answer bitwise identically
    /// to the slab, under every (mode, grid, degree, transpose) shape —
    /// the tiled push/pull gathers visit tiles in ascending global
    /// index order, reproducing the slab kernels' fold order exactly.
    #[test]
    fn tiled_mat_vec_matches_slab_bitwise(
        a in sparse(N, 96),
        u in sparse(N, 24),
        mask in sparse(N, 24),
        transpose in any::<bool>(),
        complement in any::<bool>(),
    ) {
        let mut desc = Descriptor::default().structural_mask();
        if complement {
            desc = desc.complement_mask();
        }
        let vdesc = if transpose { desc.transpose_second() } else { desc };
        let mdesc = if transpose { desc.transpose_first() } else { desc };
        for ctx in contexts() {
            let slab = to_matrix(N, &a, None);
            let uv = to_vector(N, &u);
            let mv = to_vector(N, &mask);
            for k in DEGREES {
                let reference = at_degree(k, || {
                    let w = Vector::<f64>::new(N).unwrap();
                    ctx.vxm(&w, &mv, NoAccum, plus_times::<f64>(), &uv, &slab, &vdesc).unwrap();
                    let y = Vector::<f64>::new(N).unwrap();
                    ctx.mxv(&y, &mv, NoAccum, plus_times::<f64>(), &slab, &uv, &mdesc).unwrap();
                    (vector_bits(&w), vector_bits(&y))
                });
                for grid in GRIDS {
                    let am = to_matrix(N, &a, Some(grid));
                    let got = at_degree(k, || {
                        let w = Vector::<f64>::new(N).unwrap();
                        ctx.vxm(&w, &mv, NoAccum, plus_times::<f64>(), &uv, &am, &vdesc).unwrap();
                        let y = Vector::<f64>::new(N).unwrap();
                        ctx.mxv(&y, &mv, NoAccum, plus_times::<f64>(), &am, &uv, &mdesc).unwrap();
                        (vector_bits(&w), vector_bits(&y))
                    });
                    prop_assert_eq!(
                        &reference, &got,
                        "tiled {:?} diverged from slab (mode {:?} degree {} transpose {} \
                         complement {})",
                        grid, ctx.mode(), k, transpose, complement
                    );
                }
            }
        }
    }

    /// `mxm` with a tiled left operand matches the slab product
    /// bitwise; eWise and reduce (served through the assembled row
    /// view) ride along in the same pipeline.
    #[test]
    fn tiled_pipeline_matches_slab_bitwise(
        a in sparse(N, 96),
        b in sparse(N, 96),
    ) {
        let desc = Descriptor::default();
        for ctx in contexts() {
            for k in DEGREES {
                let run = |grid: Option<(usize, usize)>| at_degree(k, || {
                    let am = to_matrix(N, &a, grid);
                    let bm = to_matrix(N, &b, None);
                    let c = Matrix::<f64>::new(N, N).unwrap();
                    ctx.mxm(&c, NoMask, NoAccum, plus_times::<f64>(), &am, &bm, &desc).unwrap();
                    let s = Matrix::<f64>::new(N, N).unwrap();
                    ctx.ewise_add_matrix(&s, NoMask, NoAccum, Plus::<f64>::new(), &am, &bm, &desc)
                        .unwrap();
                    let total = Vector::<f64>::new(N).unwrap();
                    ctx.reduce_rows(
                        &total, NoMask, NoAccum, PlusMonoid::<f64>::new(), &am, &desc,
                    ).unwrap();
                    (matrix_bits(&c), matrix_bits(&s), vector_bits(&total))
                });
                let reference = run(None);
                for grid in GRIDS {
                    prop_assert_eq!(
                        &reference, &run(Some(grid)),
                        "tiled {:?} pipeline diverged (mode {:?} degree {})",
                        grid, ctx.mode(), k
                    );
                }
            }
        }
    }

    /// Point updates drain through the tile-granular flush path; a
    /// snapshot pinned mid-stream must keep reading the pre-update
    /// value while the handle moves on — all bitwise against the slab.
    #[test]
    fn tiled_delta_and_snapshot_match_slab(
        a in sparse(N, 64),
        writes in proptest::collection::vec((0..N, 0..N, 0u8..255, any::<bool>()), 1..40),
    ) {
        for ctx in contexts() {
            for grid in GRIDS {
                let run = |grid: Option<(usize, usize)>| {
                    let m = to_matrix(N, &a, grid);
                    let (early, late) = writes.split_at(writes.len() / 2);
                    for &(i, j, c, del) in early {
                        if del { m.remove(i, j).unwrap() } else { m.set(i, j, fval(c)).unwrap() }
                    }
                    // pin a snapshot mid-stream, then keep writing
                    let snap = m.snapshot();
                    for &(i, j, c, del) in late {
                        if del { m.remove(i, j).unwrap() } else { m.set(i, j, fval(c)).unwrap() }
                    }
                    let snap_bits: Vec<(usize, usize, u64)> = snap
                        .extract_tuples()
                        .unwrap()
                        .into_iter()
                        .map(|(i, j, x)| (i, j, x.to_bits()))
                        .collect();
                    // force the drain through the store's merge path
                    m.wait().unwrap();
                    (snap_bits, matrix_bits(&m))
                };
                let _ = ctx; // updates drain on the handle, mode-independent
                let reference = run(None);
                prop_assert_eq!(
                    &reference, &run(Some(grid)),
                    "tiled {:?} delta/snapshot diverged", grid
                );
            }
        }
    }
}

/// A tiled matrix stays tiled across a flush (the policy directs the
/// merge back into the same grid), and a slab matrix is untouched by
/// the tiled code paths. The flush's kernel notes show which: a
/// tile-granular flush names the tiles it rebuilt, a slab flush none.
#[test]
fn flush_preserves_the_tile_grid() {
    let m = Matrix::<f64>::from_tuples(32, 32, &[(0, 0, 1.0), (20, 20, 2.0)]).unwrap();
    m.set_tile_shape(4, 4).unwrap();
    take_notes();
    for i in 0..32 {
        m.set(i, (i * 3) % 32, i as f64).unwrap();
    }
    m.wait().unwrap();
    assert!(!take_notes().tiles.is_empty(), "the flush kept the grid");
    assert_eq!(m.tile_shape(), Some((4, 4)));
    assert_eq!(m.extract_tuples().unwrap().len(), 33);
    // a second flush still finds the grid
    m.set(31, 0, -1.0).unwrap();
    m.wait().unwrap();
    assert_eq!(take_notes().tiles, vec![(3, 0)]);
    m.clear_tile_shape().unwrap();
    assert_eq!(m.tile_shape(), None);
    m.set(31, 1, -2.0).unwrap();
    m.wait().unwrap();
    assert!(take_notes().tiles.is_empty(), "the flush merged one slab");
    assert_eq!(m.extract_tuples().unwrap().len(), 35);
}
