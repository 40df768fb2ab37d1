//! PageRank as GraphBLAS primitives, in the GAP/LAGraph shape. The
//! out-degrees come from the matrix's cached `row_degrees()`, so no
//! weighted copy of `A` is built. Each power iteration is
//!
//! * `w = d · rank ./ deg`, each share rounded as `d * r / k` like the
//!   reference baseline — sinks have no degree entry and drop out;
//! * the dangling mass `Σ rank(sinks)`: one index-list `extract` and a
//!   `reduce`;
//! * `next = base` over `GrB_ALL`, then `next += w plus.first A` — the
//!   one `vxm`, through the SpMSpV direction dispatch;
//! * `l1 = Σ |rank − next|`, and the two handles swap.

use graphblas_core::prelude::*;

/// PageRank with damping `d`, iterating until the L1 change drops below
/// `tol` or `max_iters` is reached. Dangling mass is redistributed
/// uniformly. Returns `(ranks, iterations)`.
pub fn pagerank(
    ctx: &Context,
    a: &Matrix<bool>,
    d: f64,
    tol: f64,
    max_iters: usize,
) -> Result<(Vec<f64>, usize)> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    let nf = n as f64;
    let (mut deg, mut sinks) = (Vec::new(), Vec::new());
    for (i, &k) in a.row_degrees()?.iter().enumerate() {
        if k == 0 {
            sinks.push(i);
        } else {
            deg.push((i, k as f64));
        }
    }
    let deg = Vector::from_tuples(n, &deg)?;
    let sink_rank = match sinks.len() {
        0 => None,
        k => Some(Vector::<f64>::new(k)?),
    };

    let mut rank = Vector::<f64>::new(n)?;
    let mut next = Vector::<f64>::new(n)?;
    let w = Vector::<f64>::new(n)?;
    let diff = Vector::<f64>::new(n)?;
    let replace = Descriptor::default().replace();
    ctx.assign_scalar_vector(&rank, NoMask, NoAccum, 1.0 / nf, ALL, &replace)?;
    let mut iters = max_iters;
    for it in 1..=max_iters {
        ctx.ewise_mult_vector(
            &w,
            NoMask,
            NoAccum,
            binary_fn(move |r: &f64, k: &f64| d * r / k),
            &rank,
            &deg,
            &replace,
        )?;
        let dangling = match &sink_rank {
            Some(s) => {
                ctx.extract_vector(s, NoMask, NoAccum, &rank, (&sinks).into(), &replace)?;
                ctx.reduce_vector_to_scalar(PlusMonoid::<f64>::new(), s)?
            }
            None => 0.0,
        };
        let base = (1.0 - d) / nf + d * dangling / nf;
        ctx.assign_scalar_vector(&next, NoMask, NoAccum, base, ALL, &replace)?;
        ctx.vxm(
            &next,
            NoMask,
            Accum(Plus::<f64>::new()),
            SemiringDef::new(PlusMonoid::<f64>::new(), First::<f64, bool>::new()),
            &w,
            a,
            &Descriptor::default(),
        )?;
        ctx.ewise_add_vector(
            &diff,
            NoMask,
            NoAccum,
            binary_fn(|x: &f64, y: &f64| (x - y).abs()),
            &rank,
            &next,
            &replace,
        )?;
        let l1 = ctx.reduce_vector_to_scalar(PlusMonoid::<f64>::new(), &diff)?;
        std::mem::swap(&mut rank, &mut next);
        if l1 < tol {
            iters = it;
            break;
        }
    }
    let mut out = vec![0.0; n];
    for (i, v) in rank.extract_tuples()? {
        out[i] = v;
    }
    Ok((out, iters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let t: Vec<(usize, usize, bool)> = edges.iter().map(|&(u, v)| (u, v, true)).collect();
        Matrix::from_tuples(n, n, &t).unwrap()
    }

    #[test]
    fn ranks_sum_to_one() {
        let ctx = Context::blocking();
        let a = adj(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let (r, _) = pagerank(&ctx, &a, 0.85, 1e-12, 500).unwrap();
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_is_uniform() {
        let ctx = Context::blocking();
        let a = adj(3, &[(0, 1), (1, 2), (2, 0)]);
        let (r, iters) = pagerank(&ctx, &a, 0.85, 1e-12, 500).unwrap();
        assert!(iters < 500);
        for &x in &r {
            assert!((x - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_vertices_handled() {
        let ctx = Context::blocking();
        let a = adj(2, &[(0, 1)]);
        let (r, _) = pagerank(&ctx, &a, 0.85, 1e-12, 500).unwrap();
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(r[1] > r[0]);
    }
}
