//! Connected components by min-label propagation over the `min.first`
//! semiring, LAGraph-style: only labels that changed in the last round
//! are pushed. Each round,
//!
//! * `incoming = frontier min.first A` — the smallest changed label next
//!   to each vertex;
//! * `better = incoming .< labels`;
//! * `frontier<better> = incoming` (replace) — the vertices that improve;
//! * `labels = min(labels, frontier)`, which is `labels<better> =
//!   incoming` as one union merge instead of a masked write.
//!
//! It stops when the frontier is empty; the fixed point labels each
//! component with its minimum vertex id. The first round pushes every
//! label, later rounds only the shrinking set of improvements, so a round
//! costs the edges of the vertices that changed, not all of `A`.

use graphblas_core::prelude::*;

/// Component labels (minimum vertex id per component). `a` must be
/// symmetric (undirected graph with both directions stored).
pub fn connected_components(ctx: &Context, a: &Matrix<bool>) -> Result<Vec<usize>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    let ids: Vec<(Index, u64)> = (0..n).map(|i| (i, i as u64)).collect();
    let labels = Vector::from_tuples(n, &ids)?;
    let frontier = labels.dup();
    let incoming = Vector::<u64>::new(n)?;
    let better = Vector::<bool>::new(n)?;
    let replace = Descriptor::default().replace();
    loop {
        ctx.vxm(
            &incoming,
            NoMask,
            NoAccum,
            SemiringDef::new(MinMonoid::<u64>::new(), First::<u64, bool>::new()),
            &frontier,
            a,
            &replace,
        )?;
        ctx.ewise_mult_vector(
            &better,
            NoMask,
            NoAccum,
            binary_fn(|x: &u64, y: &u64| x < y),
            &incoming,
            &labels,
            &replace,
        )?;
        ctx.apply_vector(
            &frontier,
            &better,
            NoAccum,
            Identity::<u64>::new(),
            &incoming,
            &replace,
        )?;
        if frontier.nvals()? == 0 {
            break;
        }
        ctx.ewise_add_vector(
            &labels,
            NoMask,
            NoAccum,
            Min::<u64>::new(),
            &labels,
            &frontier,
            &Descriptor::default(),
        )?;
    }
    Ok(labels
        .extract_tuples()?
        .into_iter()
        .map(|(_, l)| l as usize)
        .collect())
}

/// Number of connected components.
pub fn num_components(ctx: &Context, a: &Matrix<bool>) -> Result<usize> {
    let mut labels = connected_components(ctx, a)?;
    labels.sort_unstable();
    labels.dedup();
    Ok(labels.len())
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
    fn two_components() {
        let ctx = Context::blocking();
        let a = undirected(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(connected_components(&ctx, &a).unwrap(), vec![0, 0, 0, 3, 3]);
        assert_eq!(num_components(&ctx, &a).unwrap(), 2);
    }

    #[test]
    fn isolated_vertices() {
        let ctx = Context::blocking();
        let a = undirected(3, &[(1, 2)]);
        assert_eq!(connected_components(&ctx, &a).unwrap(), vec![0, 1, 1]);
        assert_eq!(num_components(&ctx, &a).unwrap(), 2);
    }

    #[test]
    fn long_chain_converges() {
        let ctx = Context::blocking();
        let edges: Vec<(usize, usize)> = (0..19).map(|i| (i, i + 1)).collect();
        let a = undirected(20, &edges);
        assert_eq!(connected_components(&ctx, &a).unwrap(), vec![0; 20]);
    }
}
