//! Breadth-first search in the language of linear algebra: frontier
//! expansion is `q<!visited> = q ⊕.⊗ A` with the Boolean `lor.land`
//! semiring, the complemented-mask pruning being exactly the trick the BC
//! example's forward sweep uses (paper §VII-C).
//!
//! Every frontier step goes through the SpMSpV direction dispatch
//! (`kernel::spmspv`): sparse frontiers are *pushed* (work proportional
//! to the frontier's out-degree sum, not nnz(A)), while dense frontiers
//! near the traversal peak are *pulled* against the complemented visited
//! mask so already-discovered vertices are never expanded. The switch is
//! per-level and automatic; enable tracing on the [`Context`] to observe
//! the chosen direction per step.

use graphblas_core::prelude::*;

/// BFS levels from `src` over a Boolean adjacency matrix: `None` for
/// unreachable vertices, `Some(0)` for the source.
pub fn bfs_levels(ctx: &Context, a: &Matrix<bool>, src: Index) -> Result<Vec<Option<usize>>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    if src >= n {
        return Err(Error::InvalidIndex(format!("source {src} out of range")));
    }
    let levels = Vector::<i64>::new(n)?;
    let q = Vector::from_tuples(n, &[(src, true)])?;
    // structural: level 0 is a stored value that casts to false, but the
    // source must still be pruned from future frontiers
    let push = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();
    let mut d = 0i64;
    loop {
        // levels<q> = d (merge mode: only frontier positions written)
        ctx.assign_scalar_vector(&levels, &q, NoAccum, d, ALL, &Descriptor::default())?;
        // q<!levels> = q lor.land A (replace): expand and prune visited
        ctx.vxm(&q, &levels, NoAccum, lor_land(), &q, a, &push)?;
        // Complete the level through the context's wait() (a no-op in
        // blocking mode): the nvals() force below would complete it too,
        // but outside the execution trace that records each level's
        // push/pull choice.
        ctx.wait()?;
        if q.nvals()? == 0 {
            break;
        }
        d += 1;
    }
    let mut out = vec![None; n];
    for (i, lv) in levels.extract_tuples()? {
        out[i] = Some(lv as usize);
    }
    Ok(out)
}

/// Batched BFS: levels from every source in `sources` at once — the
/// paper's §VII batching trick (the same one Figure 3's batched BC
/// exploits). The per-source frontiers form the columns of one `n × b`
/// Boolean matrix, so each BFS level is **one** masked `mxm` over the
/// whole batch instead of `b` independent `vxm`s; the result block is
/// demultiplexed back into one level vector per source.
///
/// `out[s][v]` is the hop distance from `sources[s]` to `v` (`Some(0)`
/// for the source itself, `None` if unreachable) — exactly what
/// [`bfs_levels`] returns for each source on its own, which the unit
/// tests assert. Duplicate sources are allowed; each occupies its own
/// column.
pub fn bfs_multi(
    ctx: &Context,
    a: &Matrix<bool>,
    sources: &[Index],
) -> Result<Vec<Vec<Option<usize>>>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    if let Some(&bad) = sources.iter().find(|&&s| s >= n) {
        return Err(Error::InvalidIndex(format!("source {bad} out of range")));
    }
    // column-block frontier sweep: one mxm per level over all sources
    let levels = crate::closeness::multi_source_bfs_levels(ctx, a, sources)?;
    let mut out = vec![vec![None; n]; sources.len()];
    for (v, s, lv) in levels.extract_tuples()? {
        out[s][v] = Some(lv as usize);
    }
    Ok(out)
}

/// BFS parent tree from `src` using the `min.first` semiring: frontier
/// values carry vertex ids, so each newly discovered vertex receives the
/// minimum-id parent (deterministic tie-breaking).
pub fn bfs_parents(ctx: &Context, a: &Matrix<bool>, src: Index) -> Result<Vec<Option<usize>>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    if src >= n {
        return Err(Error::InvalidIndex(format!("source {src} out of range")));
    }
    // ids(i) = i, used to re-stamp each frontier with its own ids
    let ids: Vec<(Index, u64)> = (0..n).map(|i| (i, i as u64)).collect();
    let iota = Vector::from_tuples(n, &ids)?;
    let parents = Vector::from_tuples(n, &[(src, src as u64)])?;
    let frontier = Vector::from_tuples(n, &[(src, src as u64)])?;
    // the adjacency is Boolean; propagate parent ids with min.first over
    // a cast view of A (first-arg values are the frontier's ids)
    let desc = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();
    // hoisted out of the loop: the replace descriptor clears it each step
    let next = Vector::<u64>::new(n)?;
    loop {
        // next<!parents> = frontier min.first A: each discovered vertex
        // gets the smallest frontier id pointing at it
        ctx.vxm(
            &next,
            &parents,
            NoAccum,
            SemiringDef::new(MinMonoid::<u64>::new(), binary_fn(|p: &u64, _e: &bool| *p)),
            &frontier,
            a,
            &desc,
        )?;
        ctx.wait()?; // trace-visible completion, as in bfs_levels
        if next.nvals()? == 0 {
            break;
        }
        // parents ∪= next (first wins; disjoint by the mask anyway)
        ctx.ewise_add_vector(
            &parents,
            NoMask,
            NoAccum,
            First::<u64, u64>::new(),
            &parents,
            &next,
            &Descriptor::default(),
        )?;
        // frontier = next re-stamped with its own vertex ids
        ctx.ewise_mult_vector(
            &frontier,
            NoMask,
            NoAccum,
            Second::<u64, u64>::new(),
            &next,
            &iota,
            &Descriptor::default().replace(),
        )?;
    }
    let mut out = vec![None; n];
    for (i, p) in parents.extract_tuples()? {
        out[i] = Some(p as usize);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let t: Vec<(usize, usize, bool)> = edges.iter().map(|&(u, v)| (u, v, true)).collect();
        Matrix::from_tuples(n, n, &t).unwrap()
    }

    #[test]
    fn levels_on_dag() {
        let ctx = Context::blocking();
        let a = adj(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        assert_eq!(
            bfs_levels(&ctx, &a, 0).unwrap(),
            vec![Some(0), Some(1), Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn levels_with_cycle() {
        let ctx = Context::blocking();
        let a = adj(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(
            bfs_levels(&ctx, &a, 1).unwrap(),
            vec![Some(2), Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    fn parents_match_reference_tie_breaking() {
        let ctx = Context::blocking();
        let a = adj(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let p = bfs_parents(&ctx, &a, 0).unwrap();
        assert_eq!(p[0], Some(0));
        assert_eq!(p[3], Some(1)); // min-id parent among {1, 2}
        assert_eq!(p[4], Some(3));
        assert_eq!(p[5], None);
    }

    #[test]
    fn isolated_source() {
        let ctx = Context::blocking();
        let a = adj(3, &[(1, 2)]);
        assert_eq!(bfs_levels(&ctx, &a, 0).unwrap(), vec![Some(0), None, None]);
    }

    #[test]
    fn source_bounds_checked() {
        let ctx = Context::blocking();
        let a = adj(2, &[(0, 1)]);
        assert!(bfs_levels(&ctx, &a, 5).is_err());
        assert!(bfs_parents(&ctx, &a, 5).is_err());
    }

    #[test]
    fn bfs_multi_matches_n_independent_runs() {
        // the §VII batching primitive must be observationally identical
        // to running bfs_levels once per source
        let ctx = Context::blocking();
        let a = adj(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (1, 4),
                (4, 5),
                (5, 1),
                (6, 7), // separate component
            ],
        );
        let sources: Vec<Index> = vec![0, 3, 6, 5];
        let batched = bfs_multi(&ctx, &a, &sources).unwrap();
        assert_eq!(batched.len(), sources.len());
        for (s, &src) in sources.iter().enumerate() {
            let single = bfs_levels(&ctx, &a, src).unwrap();
            assert_eq!(batched[s], single, "source {src}");
        }
    }

    #[test]
    fn bfs_multi_allows_duplicate_sources() {
        let ctx = Context::blocking();
        let a = adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let batched = bfs_multi(&ctx, &a, &[2, 2, 0]).unwrap();
        let from2 = bfs_levels(&ctx, &a, 2).unwrap();
        let from0 = bfs_levels(&ctx, &a, 0).unwrap();
        assert_eq!(batched[0], from2);
        assert_eq!(batched[1], from2);
        assert_eq!(batched[2], from0);
    }

    #[test]
    fn bfs_multi_checks_bounds_and_rejects_empty() {
        let ctx = Context::blocking();
        let a = adj(3, &[(0, 1)]);
        assert!(bfs_multi(&ctx, &a, &[0, 7]).is_err());
        assert!(bfs_multi(&ctx, &a, &[]).is_err());
    }

    #[test]
    fn nonblocking_bfs_matches() {
        let b = Context::blocking();
        let nb = Context::nonblocking();
        let a = adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)]);
        assert_eq!(
            bfs_levels(&b, &a, 0).unwrap(),
            bfs_levels(&nb, &a, 0).unwrap()
        );
    }
}
