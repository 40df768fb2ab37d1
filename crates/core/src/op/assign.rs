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
use crate::mask::{MaskCsr, MaskVec};
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{effective_dims, resolve_target, Computed, First};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
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
        let fig2 = self.fig2(c, mask, accum, desc)?.reading_c();
        let fig2 = fig2.reading(First::Inputs);
        let a_node = a.handle.capture();
        fig2.submit(
            "assign",
            vec![a_node.clone() as _],
            move |_, accum, c_old| {
                let a_st = oriented_storage(&a_node, tr_a)?;
                Ok(Computed::Z(assign_matrix(
                    c_old, &a_st, &rows, &cols, accum,
                )))
            },
        )
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
        let assigns = !accum.is_accum();
        let unmasked = mask.mask_dims().is_none();

        // A 1x1 no-accum unmasked scalar assign is exactly a point
        // update: route it through the O(1) pending-update buffer
        // instead of submitting a whole-output rewrite. (Skipped when a
        // test fault is armed, so the fault lands on a real submission.)
        if assigns
            && unmasked
            && !desc.is_replace()
            && !desc.is_mask_complemented()
            && rows.len(c.nrows()) == 1
            && cols.len(c.ncols()) == 1
            && !self.has_fault()
        {
            let i = resolve_target(rows, c.nrows(), "row")?[0];
            let j = resolve_target(cols, c.ncols(), "column")?[0];
            return c.set(i, j, value);
        }

        // Whole-matrix scalar fill without an accumulator (Fig. 3's
        // `bcu = 1.0`, or `levels<frontier> = d`): as in
        // `assign_scalar_vector`, no index list is materialized and the
        // old value is read only through a merge mask. Unmasked, the
        // result is the full matrix itself; a non-complemented mask
        // writes only the positions it admits.
        let whole = assigns && matches!((rows, cols), (IndexSelection::All, IndexSelection::All));
        let (rows, cols) = if whole {
            (Vec::new(), Vec::new())
        } else {
            let rows = resolve_target(rows, c.nrows(), "row")?;
            (rows, resolve_target(cols, c.ncols(), "column")?)
        };
        let (m, n, replace) = (c.nrows(), c.ncols(), desc.is_replace());
        let fig2 = self.fig2(c, mask, accum, desc)?;
        let fig2 = if whole {
            fig2.reading(First::Mask)
        } else {
            fig2.reading_c()
        };
        fig2.submit("assign", vec![], move |mcsr, accum, c_old| {
            Ok(match mcsr {
                _ if !whole => {
                    Computed::Z(assign_scalar_matrix(c_old, &value, &rows, &cols, accum))
                }
                MaskCsr::All => Computed::Done(MatrixStore::csr(Csr::full(m, n, value))),
                MaskCsr::Pattern {
                    pattern,
                    complement: false,
                } => {
                    let z = fill_admitted_matrix(c_old, pattern, &value, replace);
                    Computed::Done(MatrixStore::csr(z))
                }
                // a complemented pattern admits O(n) positions anyway
                _ => Computed::Z(Csr::full(m, n, value)),
            })
        })
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
        let fig2 = self.fig2(w, mask, accum, desc)?.reading_c();
        let fig2 = fig2.reading(First::Inputs);
        let u_node = u.handle.capture();
        fig2.submit(
            "assign",
            vec![u_node.clone() as _],
            move |_, accum, w_old| {
                let u_st = u_node.ready_storage()?;
                Ok(Computed::Z(assign_vector(w_old, &u_st, &indices, accum)))
            },
        )
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
        let assigns = !accum.is_accum();
        let unmasked = mask.mask_size().is_none();
        let fig2 = self.fig2(w, mask, accum, desc)?;

        // Single-index no-accum unmasked scalar assign == point update;
        // see assign_scalar_matrix.
        if assigns
            && unmasked
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
        if assigns && matches!(indices, IndexSelection::All) {
            let (n, replace) = (w.size(), desc.is_replace());
            let fig2 = fig2.reading(First::Mask);
            return fig2.submit("assign", vec![], move |mvec, _, w_old| {
                Ok(match mvec {
                    MaskVec::All => Computed::Done(SparseVec::full(n, value)),
                    MaskVec::Pattern {
                        indices,
                        complement: false,
                    } => {
                        let (mut idx, mut vals) = (Vec::new(), Vec::new());
                        let (wi, wv) = (w_old.indices(), w_old.vals());
                        fill_admitted(wi, wv, indices, &value, replace, &mut idx, &mut vals);
                        Computed::Done(SparseVec::from_sorted_parts(n, idx, vals))
                    }
                    // a complemented pattern admits O(n) positions anyway
                    _ => Computed::Z(SparseVec::full(n, value)),
                })
            });
        }

        let indices = resolve_target(indices, w.size(), "vector")?;
        fig2.reading_c()
            .submit("assign", vec![], move |_, accum, w_old| {
                let z = assign_scalar_vector(w_old, &value, &indices, accum);
                Ok(Computed::Z(z))
            })
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
