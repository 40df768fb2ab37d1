//! `GrB_assign` (Table II): `C<Mask>(rows, cols) ⊙= A` and the
//! scalar-fill variants (`C<Mask>(rows, cols) ⊙= value`).
//!
//! The mask spans the *whole* output (not just the assigned region), and
//! `GrB_REPLACE` clears unmasked positions across the whole output —
//! assign's write stage is the ordinary Figure 2 pipeline applied to
//! `Z = C-with-region-updated`.

use crate::accum::Accumulate;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::index::IndexSelection;
use crate::kernel::assign::{
    assign_matrix, assign_scalar_matrix, assign_scalar_vector, assign_vector, fill_admitted,
    fill_admitted_matrix,
};
use crate::kernel::write::{write_matrix, write_vector};
use crate::mask::{MaskCsr, MaskVec};
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{check_mask_dims1, check_mask_dims2, effective_dims, resolve_target};
use crate::scalar::Scalar;
use crate::storage::engine::MatrixStore;
use crate::storage::vec::SparseVec;

impl Context {
    /// `GrB_assign` (matrix): `C<Mask>(rows, cols) ⊙= A`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn assign_matrix<T, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        a: &Matrix<T>,
        rows: IndexSelection<'_>,
        cols: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let (am, an) = effective_dims(a, tr_a);
        let rows = resolve_target(rows, c.nrows(), "row")?;
        let cols = resolve_target(cols, c.ncols(), "column")?;
        dim_check((am, an) == (rows.len(), cols.len()), || {
            format!(
                "assign source is {am}x{an} but target region is {}x{}",
                rows.len(),
                cols.len()
            )
        })?;
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        let (a_node, c_node) = (a.handle.capture(), c.handle.capture());
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![a_node.clone() as _, c_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let c_old = c_node.ready_storage()?.row_csr();
            let mcsr = msnap.materialize()?;
            let z = assign_matrix(&c_old, &a_st, &rows, &cols, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            // Z already embodies the accumulate semantics; the write stage
            // only applies the mask/replace selection against old C.
            Ok(MatrixStore::csr(write_matrix(
                &c_old,
                z,
                &crate::accum::NoAccum,
                &mcsr,
                replace,
            )))
        };
        self.submit("assign", &c.handle, deps, eval)
    }

    /// `GrB_assign` (matrix, scalar fill): every position of the region
    /// receives `value` (Fig. 3 line 61: `bcu` filled with `1.0`).
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn assign_scalar_matrix<T, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        value: T,
        rows: IndexSelection<'_>,
        cols: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        // Whole-matrix masked fill without an accumulator (`levels<frontier>
        // = d`): a non-complemented mask admits few positions, so Z is built
        // from its pattern, as in `assign_scalar_vector`.
        let mask_fill = !accum.is_accum()
            && matches!(rows, IndexSelection::All)
            && matches!(cols, IndexSelection::All);
        let rows = resolve_target(rows, c.nrows(), "row")?;
        let cols = resolve_target(cols, c.ncols(), "column")?;
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        // A 1x1 no-accum unmasked scalar assign is exactly a point
        // update: route it through the O(1) pending-update buffer
        // instead of submitting a whole-output rewrite. (Skipped when a
        // test fault is armed, so the fault lands on a real submission.)
        if !accum.is_accum()
            && mask.mask_dims().is_none()
            && !desc.is_replace()
            && !desc.is_mask_complemented()
            && rows.len() == 1
            && cols.len() == 1
            && !self.has_fault()
        {
            return c.set(rows[0], cols[0], value);
        }

        let c_node = c.handle.capture();
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![c_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let c_old = c_node.ready_storage()?.row_csr();
            let mcsr = msnap.materialize()?;
            if let (
                true,
                MaskCsr::Pattern {
                    pattern,
                    complement: false,
                },
            ) = (mask_fill, &mcsr)
            {
                return Ok(MatrixStore::csr(fill_admitted_matrix(
                    &c_old, pattern, &value, replace,
                )));
            }
            let z = assign_scalar_matrix(&c_old, &value, &rows, &cols, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(MatrixStore::csr(write_matrix(
                &c_old,
                z,
                &crate::accum::NoAccum,
                &mcsr,
                replace,
            )))
        };
        self.submit("assign", &c.handle, deps, eval)
    }

    /// `GrB_assign` (vector): `w<mask>(indices) ⊙= u`.
    pub fn assign_vector<T, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        u: &Vector<T>,
        indices: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        let indices = resolve_target(indices, w.size(), "vector")?;
        dim_check(u.size() == indices.len(), || {
            format!(
                "assign source has size {} but target region has {}",
                u.size(),
                indices.len()
            )
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let (u_node, w_node) = (u.handle.capture(), w.handle.capture());
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![u_node.clone() as _, w_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let u_st = u_node.ready_storage()?;
            let w_old = w_node.ready_storage()?;
            let mvec = msnap.materialize()?;
            let z = assign_vector(&w_old, &u_st, &indices, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(write_vector(
                &w_old,
                z,
                &crate::accum::NoAccum,
                &mvec,
                replace,
            ))
        };
        self.submit("assign", &w.handle, deps, eval)
    }

    /// `GrB_assign` (vector, scalar fill) — Fig. 3 line 77: `delta`
    /// filled with `-nsver`.
    pub fn assign_scalar_vector<T, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        value: T,
        indices: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        check_mask_dims1(mask.mask_size(), w.size())?;

        // Single-index no-accum unmasked scalar assign == point update;
        // see assign_scalar_matrix.
        if !accum.is_accum()
            && mask.mask_size().is_none()
            && !desc.is_replace()
            && !desc.is_mask_complemented()
            && indices.len(w.size()) == 1
            && !self.has_fault()
        {
            return w.set(indices.resolve(w.size())?[0], value);
        }

        // Whole-vector scalar fill without an accumulator (`next = base`,
        // or the BFS `visited<q> = true` shape): Z is `value` everywhere,
        // so no index list is materialized. Unmasked, the result is Z
        // itself; a non-complemented mask writes only the positions it
        // admits, O(|mask| + nvals(w)).
        if !accum.is_accum() && matches!(indices, IndexSelection::All) {
            let msnap = mask.snap(desc);
            let replace = desc.is_replace();
            let w_old_cap = w.old(!msnap.is_all() && !replace);
            let mut deps: Vec<_> = w_old_cap.dep().into_iter().collect();
            deps.extend(msnap.deps());
            let n = w.size();
            let eval = move || {
                let mvec = msnap.materialize()?;
                if mvec.admits_all() {
                    return Ok(SparseVec::full(n, value));
                }
                let w_old = w_old_cap.storage()?;
                if let MaskVec::Pattern {
                    indices,
                    complement: false,
                } = &mvec
                {
                    let (mut idx, mut vals) = (Vec::new(), Vec::new());
                    let (wi, wv) = (w_old.indices(), w_old.vals());
                    fill_admitted(wi, wv, indices, &value, replace, &mut idx, &mut vals);
                    return Ok(SparseVec::from_sorted_parts(n, idx, vals));
                }
                // a complemented pattern admits O(n) positions anyway
                let z = SparseVec::full(n, value);
                Ok(write_vector(
                    &w_old,
                    z,
                    &crate::accum::NoAccum,
                    &mvec,
                    replace,
                ))
            };
            return self.submit("assign", &w.handle, deps, eval);
        }

        let indices = resolve_target(indices, w.size(), "vector")?;

        let w_node = w.handle.capture();
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![w_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let w_old = w_node.ready_storage()?;
            let mvec = msnap.materialize()?;
            let z = assign_scalar_vector(&w_old, &value, &indices, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(write_vector(
                &w_old,
                z,
                &crate::accum::NoAccum,
                &mvec,
                replace,
            ))
        };
        self.submit("assign", &w.handle, deps, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::error::Error;
    use crate::index::{Index, ALL};
    use crate::mask::NoMask;

    #[test]
    fn fill_whole_matrix() {
        let ctx = Context::blocking();
        let bcu = Matrix::<f32>::new(3, 2).unwrap();
        ctx.assign_scalar_matrix(&bcu, NoMask, NoAccum, 1.0, ALL, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(bcu.nvals().unwrap(), 6);
        assert_eq!(bcu.get(2, 1).unwrap(), Some(1.0));
    }

    #[test]
    fn fill_vector_then_accumulate_reduction() {
        let ctx = Context::blocking();
        let delta = Vector::<f32>::new(4).unwrap();
        ctx.assign_scalar_vector(&delta, NoMask, NoAccum, -2.0, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(delta.to_dense().unwrap(), vec![Some(-2.0); 4]);
    }

    #[test]
    fn masked_whole_vector_fill_touches_only_admitted_positions() {
        // exercises the O(|mask|) GrB_ALL fast path: merge mode keeps
        // unmasked entries, replace mode drops them, complement masks
        // take the dense fallback — all three must agree with the
        // per-position semantics
        let ctx = Context::blocking();
        let mask = Vector::from_tuples(5, &[(1, true), (3, true), (4, false)]).unwrap();
        let w = Vector::from_tuples(5, &[(0, 9), (3, 9)]).unwrap();
        ctx.assign_scalar_vector(&w, &mask, NoAccum, 7, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 9), (1, 7), (3, 7)]);

        let w = Vector::from_tuples(5, &[(0, 9), (3, 9)]).unwrap();
        ctx.assign_scalar_vector(&w, &mask, NoAccum, 7, ALL, &Descriptor::default().replace())
            .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(1, 7), (3, 7)]);

        let w = Vector::from_tuples(5, &[(0, 9), (3, 9)]).unwrap();
        ctx.assign_scalar_vector(
            &w,
            &mask,
            NoAccum,
            7,
            ALL,
            &Descriptor::default().complement_mask(),
        )
        .unwrap();
        // complement of {1, 3}: value-false and absent positions admit
        assert_eq!(
            w.extract_tuples().unwrap(),
            vec![(0, 7), (2, 7), (3, 9), (4, 7)]
        );
    }

    #[test]
    fn assign_matrix_region() {
        let ctx = Context::blocking();
        let c = Matrix::from_tuples(3, 3, &[(0, 0, 1), (1, 1, 2), (2, 2, 3)]).unwrap();
        let a = Matrix::from_tuples(2, 2, &[(0, 0, 10), (1, 1, 20)]).unwrap();
        ctx.assign_matrix(
            &c,
            NoMask,
            NoAccum,
            &a,
            IndexSelection::List(&[0, 1]),
            IndexSelection::List(&[1, 2]),
            &Descriptor::default(),
        )
        .unwrap();
        // region rows{0,1} x cols{1,2}: A maps (0,0)->C(0,1)=10,
        // (1,1)->C(1,2)=20; old C(1,1) in region, A lacks it -> deleted
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 1), (0, 1, 10), (1, 2, 20), (2, 2, 3)]
        );
    }

    #[test]
    fn assign_with_accum() {
        let ctx = Context::blocking();
        let w = Vector::from_tuples(3, &[(0, 5)]).unwrap();
        let u = Vector::from_tuples(2, &[(0, 1), (1, 2)]).unwrap();
        ctx.assign_vector(
            &w,
            NoMask,
            Accum(Plus::<i32>::new()),
            &u,
            IndexSelection::List(&[0, 2]),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 6), (2, 2)]);
    }

    #[test]
    fn masked_scalar_assign_with_replace() {
        let ctx = Context::blocking();
        let c = Matrix::from_tuples(2, 2, &[(0, 0, 9), (1, 1, 9)]).unwrap();
        let mask = Matrix::from_tuples(2, 2, &[(0, 0, true), (0, 1, true)]).unwrap();
        ctx.assign_scalar_matrix(
            &c,
            &mask,
            NoAccum,
            7,
            ALL,
            ALL,
            &Descriptor::default().replace(),
        )
        .unwrap();
        // Z = all-7s; admitted {(0,0),(0,1)} -> 7; replace clears the rest
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 7), (0, 1, 7)]);
    }

    #[test]
    fn mask_driven_matrix_fill_matches_dense_fill() {
        // `ALL × ALL` takes the mask-pattern path; the same region spelled
        // as explicit lists takes the dense fill + write stage. Both must
        // agree for structural and valued masks, merge and replace.
        let ctx = Context::blocking();
        let mask = Matrix::from_tuples(
            4,
            3,
            &[
                (0, 0, true),
                (0, 2, false),
                (1, 1, true),
                (3, 0, true),
                (3, 2, false),
            ],
        )
        .unwrap();
        let c_tuples = [(0, 0, 9), (0, 1, 9), (1, 1, 9), (2, 2, 9), (3, 2, 9)];
        let (rows, cols): (Vec<Index>, Vec<Index>) = ((0..4).collect(), (0..3).collect());
        for desc in [
            Descriptor::default(),
            Descriptor::default().replace(),
            Descriptor::default().structural_mask(),
            Descriptor::default().structural_mask().replace(),
        ] {
            let fast = Matrix::from_tuples(4, 3, &c_tuples).unwrap();
            ctx.assign_scalar_matrix(&fast, &mask, NoAccum, 7, ALL, ALL, &desc)
                .unwrap();
            let dense = Matrix::from_tuples(4, 3, &c_tuples).unwrap();
            ctx.assign_scalar_matrix(
                &dense,
                &mask,
                NoAccum,
                7,
                IndexSelection::List(&rows),
                IndexSelection::List(&cols),
                &desc,
            )
            .unwrap();
            assert_eq!(
                fast.extract_tuples().unwrap(),
                dense.extract_tuples().unwrap(),
                "{desc:?}"
            );
        }
    }

    #[test]
    fn duplicate_target_indices_rejected() {
        let ctx = Context::blocking();
        let w = Vector::<i32>::new(3).unwrap();
        let u = Vector::<i32>::new(2).unwrap();
        assert!(matches!(
            ctx.assign_vector(
                &w,
                NoMask,
                NoAccum,
                &u,
                IndexSelection::List(&[1, 1]),
                &Descriptor::default()
            ),
            Err(Error::InvalidValue(_))
        ));
    }

    #[test]
    fn source_region_shape_mismatch() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(3, 3).unwrap();
        let a = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(
            ctx.assign_matrix(
                &c,
                NoMask,
                NoAccum,
                &a,
                IndexSelection::List(&[0]),
                IndexSelection::List(&[0, 1]),
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
    }

    #[test]
    fn assign_transposed_source() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(2, 3).unwrap();
        let a = Matrix::from_tuples(3, 2, &[(2, 0, 5)]).unwrap();
        ctx.assign_matrix(
            &c,
            NoMask,
            NoAccum,
            &a,
            ALL,
            ALL,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 2, 5)]);
    }
}
