//! Triangle counting with masked matrix multiplication — the showcase
//! for pushing a write mask *into* the multiply.
//!
//! [`triangle_count`] is the Sandia form LAGraph uses: `L = tril(A, -1)`,
//! `C<L> = L plus_pair L`, so each triangle `i > k > j` is seen once, at
//! its edge `(i, j)`, and only lower-triangle wedges are enumerated.
//! [`triangle_counts_per_vertex`] and [`k_truss`] need every edge's count
//! and keep Burkhardt's `C<A> = A plus_pair A`, which touches only
//! positions where an edge exists, never the full square.

use graphblas_core::prelude::*;

/// Number of triangles in an undirected graph given as a Boolean
/// adjacency matrix with both directions stored and no self-loops.
///
/// `L = tril(A, -1)` (the `select` extension, `GrB_TRIL`), then
/// `C<L-structural> = L plus_pair L`: `C(i, j)` counts the `k` with
/// `i > k > j` closing a triangle, so the sum of `C` counts each
/// triangle exactly once.
pub fn triangle_count(ctx: &Context, a: &Matrix<bool>) -> Result<u64> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    let l = Matrix::<bool>::new(n, n)?;
    ctx.select_matrix(
        &l,
        NoMask,
        NoAccum,
        Tril::new(-1),
        a,
        &Descriptor::default(),
    )?;
    let c = Matrix::<u64>::new(n, n)?;
    ctx.mxm(
        &c,
        &l,
        NoAccum,
        SemiringDef::new(PlusMonoid::<u64>::new(), Pair::<bool, bool, u64>::new()),
        &l,
        &l,
        &Descriptor::default().structural_mask().replace(),
    )?;
    ctx.reduce_matrix_to_scalar(PlusMonoid::<u64>::new(), &c)
}

/// Per-vertex triangle participation: `t(i)` = number of triangles
/// containing vertex `i` (row sums of the wedge-count matrix, halved:
/// each triangle at `i` is seen via its two incident edges).
pub fn triangle_counts_per_vertex(ctx: &Context, a: &Matrix<bool>) -> Result<Vec<u64>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    let c = Matrix::<u64>::new(n, n)?;
    ctx.mxm(
        &c,
        a,
        NoAccum,
        SemiringDef::new(PlusMonoid::<u64>::new(), Pair::<bool, bool, u64>::new()),
        a,
        a,
        &Descriptor::default().structural_mask().replace(),
    )?;
    let t = Vector::<u64>::new(n)?;
    ctx.reduce_rows(
        &t,
        NoMask,
        NoAccum,
        PlusMonoid::<u64>::new(),
        &c,
        &Descriptor::default(),
    )?;
    let mut out = vec![0u64; n];
    for (i, v) in t.extract_tuples()? {
        out[i] = v / 2;
    }
    Ok(out)
}

/// k-truss: the maximal subgraph in which every edge participates in at
/// least `k - 2` triangles. Iterates support counting
/// (`C<A> = A plus_pair A`) and support-threshold pruning
/// (`select(ValueGe(k-2))`) to a fixed point; returns the Boolean
/// adjacency of the truss. Classic composition of masked `mxm` with the
/// `select` extension.
pub fn k_truss(ctx: &Context, a: &Matrix<bool>, k: u64) -> Result<Matrix<bool>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    if k < 3 {
        return Err(Error::InvalidValue("k-truss requires k >= 3".into()));
    }
    let mut cur = a.dup();
    loop {
        let before = cur.nvals()?;
        // support(i,j) = # wedges closing edge (i,j)
        let support = Matrix::<u64>::new(n, n)?;
        ctx.mxm(
            &support,
            &cur,
            NoAccum,
            SemiringDef::new(PlusMonoid::<u64>::new(), Pair::<bool, bool, u64>::new()),
            &cur,
            &cur,
            &Descriptor::default().structural_mask().replace(),
        )?;
        // keep edges with support >= k-2
        let kept = Matrix::<u64>::new(n, n)?;
        ctx.select_matrix(
            &kept,
            NoMask,
            NoAccum,
            ValueGe(k - 2),
            &support,
            &Descriptor::default(),
        )?;
        let next = Matrix::<bool>::new(n, n)?;
        ctx.apply_matrix(
            &next,
            NoMask,
            NoAccum,
            unary_fn(|_: &u64| true),
            &kept,
            &Descriptor::default(),
        )?;
        if next.nvals()? == before {
            return Ok(next);
        }
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let mut t = Vec::new();
        for &(u, v) in edges {
            t.push((u, v, true));
            t.push((v, u, true));
        }
        t.sort();
        t.dedup();
        Matrix::from_tuples(n, n, &t).unwrap()
    }

    #[test]
    fn one_triangle() {
        let ctx = Context::blocking();
        let a = undirected(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&ctx, &a).unwrap(), 1);
        assert_eq!(triangle_counts_per_vertex(&ctx, &a).unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn k4() {
        let ctx = Context::blocking();
        let a = undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(&ctx, &a).unwrap(), 4);
        assert_eq!(
            triangle_counts_per_vertex(&ctx, &a).unwrap(),
            vec![3, 3, 3, 3]
        );
    }

    #[test]
    fn triangle_free_cycle() {
        let ctx = Context::blocking();
        let a = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(triangle_count(&ctx, &a).unwrap(), 0);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        let ctx = Context::blocking();
        let a = undirected(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
        assert_eq!(triangle_count(&ctx, &a).unwrap(), 2);
        assert_eq!(
            triangle_counts_per_vertex(&ctx, &a).unwrap(),
            vec![2, 2, 1, 1]
        );
    }

    #[test]
    fn k3_truss_of_k4_is_k4() {
        let ctx = Context::blocking();
        let k4 = undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let t = k_truss(&ctx, &k4, 3).unwrap();
        assert_eq!(t.nvals().unwrap(), 12); // all arcs survive
                                            // k=4: every edge of K4 is in exactly 2 triangles -> survives k=4
        let t4 = k_truss(&ctx, &k4, 4).unwrap();
        assert_eq!(t4.nvals().unwrap(), 12);
        // k=5 would need 3 triangles per edge: empty
        let t5 = k_truss(&ctx, &k4, 5).unwrap();
        assert_eq!(t5.nvals().unwrap(), 0);
    }

    #[test]
    fn truss_prunes_pendant_triangles() {
        // two triangles sharing an edge plus a pendant edge: the pendant
        // edge has no triangle support and is pruned by k=3
        let ctx = Context::blocking();
        let g = undirected(5, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)]);
        let t = k_truss(&ctx, &g, 3).unwrap();
        // (2,4) pruned (both directions); all triangle edges kept
        assert_eq!(t.nvals().unwrap(), 10);
        assert_eq!(t.get(2, 4).unwrap(), None);
        assert_eq!(t.get(0, 1).unwrap(), Some(true));
    }

    #[test]
    fn k_truss_rejects_small_k() {
        let ctx = Context::blocking();
        let a = undirected(3, &[(0, 1)]);
        assert!(k_truss(&ctx, &a, 2).is_err());
    }
}
