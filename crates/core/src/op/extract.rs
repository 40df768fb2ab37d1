//! `GrB_extract` (Table II): `C<Mask> ⊙= A(i, j)` — gather a
//! subcollection by index selections (`GrB_ALL`, explicit lists, or the
//! range extension; see [`IndexSelection`]).

use crate::accum::Accumulate;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::index::IndexSelection;
use crate::kernel::extract::{extract_matrix, extract_matrix_col, extract_vector};
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{effective_dims, Computed, First};
use crate::scalar::Scalar;

impl Context {
    /// `GrB_extract` (matrix): `C<Mask> ⊙= A(rows, cols)`.
    ///
    /// The BC example uses this to initialize the frontier
    /// (Fig. 3 line 33): columns of `A^T` selected by the source-vertex
    /// array, all rows, complemented `numsp` mask.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn extract_matrix<T, Ac, Mk>(
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
        let rows = rows.resolve(am)?;
        let cols = cols.resolve(an)?;
        dim_check(c.shape() == (rows.len(), cols.len()), || {
            format!(
                "extract output is {:?} but selection is {}x{}",
                c.shape(),
                rows.len(),
                cols.len()
            )
        })?;
        let fig2 = self.fig2(c, mask, accum, desc)?.reading(First::Inputs);
        let a_node = a.handle.capture();
        fig2.submit("extract", vec![a_node.clone() as _], move |_, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            Ok(Computed::T(extract_matrix(&a_st, &rows, &cols)))
        })
    }

    /// `GrB_extract` (vector): `w<mask> ⊙= u(indices)`.
    pub fn extract_vector<T, Ac, Mk>(
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
        let indices = indices.resolve(u.size())?;
        dim_check(w.size() == indices.len(), || {
            format!(
                "extract output has size {} but selection has {}",
                w.size(),
                indices.len()
            )
        })?;
        let fig2 = self.fig2(w, mask, accum, desc)?.reading(First::Inputs);
        let u_node = u.handle.capture();
        fig2.submit("extract", vec![u_node.clone() as _], move |_, _, _| {
            let u_st = u_node.ready_storage()?;
            Ok(Computed::T(extract_vector(&u_st, &indices)))
        })
    }

    /// `GrB_Col_extract`: `w<mask> ⊙= A(rows, j)` — one column as a
    /// vector.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn extract_col<T, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        a: &Matrix<T>,
        rows: IndexSelection<'_>,
        j: crate::index::Index,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        let tr_a = desc.is_first_transposed();
        let (am, an) = effective_dims(a, tr_a);
        if j >= an {
            return Err(crate::error::Error::InvalidIndex(format!(
                "column {j} out of bounds for effective width {an}"
            )));
        }
        let rows = rows.resolve(am)?;
        dim_check(w.size() == rows.len(), || {
            format!(
                "extract output has size {} but selection has {}",
                w.size(),
                rows.len()
            )
        })?;
        let fig2 = self.fig2(w, mask, accum, desc)?.reading(First::Inputs);
        let a_node = a.handle.capture();
        fig2.submit("extract", vec![a_node.clone() as _], move |_, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            Ok(Computed::T(extract_matrix_col(&a_st, &rows, j)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NoAccum;
    use crate::error::Error;
    use crate::index::ALL;
    use crate::mask::NoMask;

    fn a() -> Matrix<i32> {
        Matrix::from_tuples(
            3,
            3,
            &[
                (0, 0, 1),
                (0, 1, 2),
                (1, 1, 3),
                (1, 2, 4),
                (2, 0, 5),
                (2, 2, 6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn extract_submatrix_with_lists() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(2, 2).unwrap();
        ctx.extract_matrix(
            &c,
            NoMask,
            NoAccum,
            &a(),
            IndexSelection::List(&[0, 2]),
            IndexSelection::List(&[2, 0]),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 1, 1), (1, 0, 6), (1, 1, 5)]
        );
    }

    #[test]
    fn fig3_line33_frontier_init() {
        // frontier<!numsp, replace> = A^T(ALL, s) — transposed, masked
        let ctx = Context::blocking();
        let s = [1usize];
        let numsp = Matrix::from_tuples(3, 1, &[(1, 0, 1)]).unwrap();
        let frontier = Matrix::<i32>::new(3, 1).unwrap();
        let desc = Descriptor::default()
            .transpose_first()
            .complement_mask()
            .replace();
        ctx.extract_matrix(
            &frontier,
            &numsp,
            NoAccum,
            &a(),
            ALL,
            IndexSelection::List(&s),
            &desc,
        )
        .unwrap();
        // A^T(:,1) = A(1,:) = {1:3, 2:4}; complement of numsp excludes row 1
        assert_eq!(frontier.extract_tuples().unwrap(), vec![(2, 0, 4)]);
    }

    #[test]
    fn extract_vector_and_ranges() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[0, 10, 20, 30, 40]).unwrap();
        let w = Vector::<i32>::new(2).unwrap();
        ctx.extract_vector(
            &w,
            NoMask,
            NoAccum,
            &u,
            IndexSelection::Stride(1, 5, 2),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 10), (1, 30)]);
    }

    #[test]
    fn extract_col_op() {
        let ctx = Context::blocking();
        let w = Vector::<i32>::new(3).unwrap();
        ctx.extract_col(&w, NoMask, NoAccum, &a(), ALL, 1, &Descriptor::default())
            .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn bad_indices_are_api_errors() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(1, 1).unwrap();
        assert!(matches!(
            ctx.extract_matrix(
                &c,
                NoMask,
                NoAccum,
                &a(),
                IndexSelection::List(&[9]),
                IndexSelection::List(&[0]),
                &Descriptor::default(),
            ),
            Err(Error::InvalidIndex(_))
        ));
        let w = Vector::<i32>::new(3).unwrap();
        assert!(matches!(
            ctx.extract_col(&w, NoMask, NoAccum, &a(), ALL, 7, &Descriptor::default()),
            Err(Error::InvalidIndex(_))
        ));
    }

    #[test]
    fn output_shape_must_match_selection() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(
            ctx.extract_matrix(&c, NoMask, NoAccum, &a(), ALL, ALL, &Descriptor::default()),
            Err(Error::DimensionMismatch(_))
        ));
    }
}
