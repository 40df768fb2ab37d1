//! Single-source shortest paths over the min-plus (tropical) semiring —
//! Table I row 2's family put to work: Bellman–Ford as one `vxm` per
//! relaxation round, LAGraph-style: only the distances that changed in
//! the last round are relaxed. Each round,
//!
//! * `relaxed = frontier min.+ A` — the best path through a vertex whose
//!   distance just changed;
//! * `better = relaxed .< dist`;
//! * `frontier<!struct(dist), replace> = relaxed` — the newly reached
//!   vertices;
//! * `frontier<better> = relaxed` (merge) — plus the improved ones;
//! * `dist = min(dist, frontier)`.
//!
//! It stops when the frontier is empty. A vertex that did not change in
//! the last round already relaxed its out-edges into `dist`, so each
//! round's `dist` is bitwise the one a relaxation from every reached
//! vertex would give, in the same number of rounds, at the cost of the
//! changed vertices' edges instead of all reached ones'. `dist` stays
//! sparse: an absent entry is unreachable, with no ∞ sentinel.

use graphblas_core::prelude::*;

/// Bellman–Ford SSSP: distances from `src` over a weighted adjacency
/// matrix (stored weight = edge length; absent = no edge). `None` for
/// unreachable vertices. Returns an error on a negative cycle reachable
/// from `src` (distances still improving after `n` rounds).
pub fn sssp_bellman_ford(ctx: &Context, a: &Matrix<f64>, src: Index) -> Result<Vec<Option<f64>>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    if src >= n {
        return Err(Error::InvalidIndex(format!("source {src} out of range")));
    }
    let dist = Vector::from_tuples(n, &[(src, 0.0f64)])?;
    let frontier = dist.dup();
    let relaxed = Vector::<f64>::new(n)?;
    let better = Vector::<bool>::new(n)?;
    let replace = Descriptor::default().replace();
    let unreached = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();
    for round in 0..n {
        ctx.vxm(
            &relaxed,
            NoMask,
            NoAccum,
            min_plus::<f64>(),
            &frontier,
            a,
            &replace,
        )?;
        ctx.ewise_mult_vector(
            &better,
            NoMask,
            NoAccum,
            binary_fn(|x: &f64, y: &f64| x < y),
            &relaxed,
            &dist,
            &replace,
        )?;
        ctx.apply_vector(
            &frontier,
            &dist,
            NoAccum,
            Identity::<f64>::new(),
            &relaxed,
            &unreached,
        )?;
        ctx.apply_vector(
            &frontier,
            &better,
            NoAccum,
            Identity::<f64>::new(),
            &relaxed,
            &Descriptor::default(),
        )?;
        if frontier.nvals()? == 0 {
            break;
        }
        if round == n - 1 {
            return Err(Error::InvalidValue(
                "negative cycle reachable from source".into(),
            ));
        }
        ctx.ewise_add_vector(
            &dist,
            NoMask,
            NoAccum,
            Min::<f64>::new(),
            &dist,
            &frontier,
            &Descriptor::default(),
        )?;
    }
    let mut out = vec![None; n];
    for (i, d) in dist.extract_tuples()? {
        out[i] = Some(d);
    }
    Ok(out)
}

/// All-pairs shortest paths by min-plus matrix powering (repeated
/// squaring of `I_0 ⊕ A` until a fixed point): `D(i,j)` is the shortest
/// path length, absent = unreachable. O(n³ log n) worst case — for
/// small/medium graphs and for validating `sssp_bellman_ford`.
pub fn apsp_min_plus(ctx: &Context, a: &Matrix<f64>) -> Result<Matrix<f64>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    // D = A ⊕ 0-diagonal (distance 0 to self)
    let diag: Vec<(Index, Index, f64)> = (0..n).map(|i| (i, i, 0.0)).collect();
    let eye = Matrix::from_tuples(n, n, &diag)?;
    let d = Matrix::<f64>::new(n, n)?;
    ctx.ewise_add_matrix(
        &d,
        NoMask,
        NoAccum,
        Min::<f64>::new(),
        a,
        &eye,
        &Descriptor::default(),
    )?;
    loop {
        let before = d.extract_tuples()?;
        // D = D min.+ D
        ctx.mxm(
            &d,
            NoMask,
            NoAccum,
            min_plus::<f64>(),
            &d,
            &d,
            &Descriptor::default(),
        )?;
        if d.extract_tuples()? == before {
            return Ok(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(n: usize, edges: &[(usize, usize, f64)]) -> Matrix<f64> {
        Matrix::from_tuples(n, n, edges).unwrap()
    }

    #[test]
    fn simple_distances() {
        let ctx = Context::blocking();
        let a = adj(
            5,
            &[
                (0, 1, 4.0),
                (0, 2, 1.0),
                (2, 1, 2.0),
                (1, 3, 1.0),
                (2, 3, 5.0),
            ],
        );
        let d = sssp_bellman_ford(&ctx, &a, 0).unwrap();
        assert_eq!(d, vec![Some(0.0), Some(3.0), Some(1.0), Some(4.0), None]);
    }

    #[test]
    fn negative_edge_ok() {
        let ctx = Context::blocking();
        let a = adj(3, &[(0, 1, 5.0), (1, 2, -3.0), (0, 2, 4.0)]);
        let d = sssp_bellman_ford(&ctx, &a, 0).unwrap();
        assert_eq!(d[2], Some(2.0));
    }

    #[test]
    fn negative_cycle_detected() {
        let ctx = Context::blocking();
        let a = adj(2, &[(0, 1, 1.0), (1, 0, -2.0)]);
        assert!(sssp_bellman_ford(&ctx, &a, 0).is_err());
    }

    #[test]
    fn apsp_agrees_with_sssp() {
        let ctx = Context::blocking();
        let a = adj(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (0, 3, 10.0),
                (3, 0, 1.0),
            ],
        );
        let apsp = apsp_min_plus(&ctx, &a).unwrap();
        for src in 0..4 {
            let d = sssp_bellman_ford(&ctx, &a, src).unwrap();
            for (dst, want) in d.iter().enumerate() {
                let from_apsp = apsp.get(src, dst).unwrap();
                assert_eq!(&from_apsp, want, "src {src} dst {dst}");
            }
        }
    }

    #[test]
    fn unreachable_is_absent_not_infinite() {
        let ctx = Context::blocking();
        let a = adj(3, &[(1, 2, 1.0)]);
        let d = sssp_bellman_ford(&ctx, &a, 0).unwrap();
        assert_eq!(d, vec![Some(0.0), None, None]);
    }
}
