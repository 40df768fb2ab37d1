//! `GrB_select` (documented extension; GraphBLAS 2.0):
//! `C<Mask> ⊙= select(op, A)` — keep the stored elements satisfying an
//! index-aware predicate, with the standard Figure 2 write pipeline.

use crate::accum::Accumulate;
use crate::algebra::indexop::IndexSelectOp;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{effective_dims, Computed, First};
use crate::scalar::Scalar;

impl Context {
    /// `GrB_select` (matrix): `C<Mask> ⊙= select(op, A)`.
    pub fn select_matrix<T, F, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        op: F,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        F: IndexSelectOp<T>,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let da = effective_dims(a, tr_a);
        dim_check(c.shape() == da, || {
            format!("select output is {:?} but input is {da:?}", c.shape())
        })?;
        let fig2 = self.fig2(c, mask, accum, desc)?.reading(First::Inputs);
        let a_node = a.handle.capture();
        fig2.submit("select", vec![a_node.clone() as _], move |_, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            Ok(Computed::T(a_st.filter(|i, j, v| op.keep(i, j, v))))
        })
    }

    /// `GrB_select` (vector): `w<mask> ⊙= select(op, u)` (the predicate
    /// sees `j = 0`).
    pub fn select_vector<T, F, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        op: F,
        u: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        F: IndexSelectOp<T>,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        dim_check(w.size() == u.size(), || {
            format!("select output is {} but input is {}", w.size(), u.size())
        })?;
        let fig2 = self.fig2(w, mask, accum, desc)?.reading(First::Inputs);
        let u_node = u.handle.capture();
        fig2.submit("select", vec![u_node.clone() as _], move |_, _, _| {
            let u_st = u_node.ready_storage()?;
            Ok(Computed::T(u_st.filter(|i, v| op.keep(i, 0, v))))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NoAccum;
    use crate::algebra::indexop::{select_fn, Diag, Tril, Triu, ValueGt};
    use crate::mask::NoMask;

    fn a() -> Matrix<i32> {
        Matrix::from_tuples(
            3,
            3,
            &[
                (0, 0, 1),
                (0, 2, 2),
                (1, 0, 3),
                (1, 1, 4),
                (2, 1, 5),
                (2, 2, 6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn tril_and_triu() {
        let ctx = Context::blocking();
        let l = Matrix::<i32>::new(3, 3).unwrap();
        ctx.select_matrix(
            &l,
            NoMask,
            NoAccum,
            Tril::new(-1),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(l.extract_tuples().unwrap(), vec![(1, 0, 3), (2, 1, 5)]);
        let u = Matrix::<i32>::new(3, 3).unwrap();
        ctx.select_matrix(
            &u,
            NoMask,
            NoAccum,
            Triu::new(1),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(u.extract_tuples().unwrap(), vec![(0, 2, 2)]);
        // tril(-1) ∪ diag(0) ∪ triu(1) partitions the pattern
        let d = Matrix::<i32>::new(3, 3).unwrap();
        ctx.select_matrix(
            &d,
            NoMask,
            NoAccum,
            Diag::new(0),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            l.nvals().unwrap() + d.nvals().unwrap() + u.nvals().unwrap(),
            a().nvals().unwrap()
        );
    }

    #[test]
    fn value_threshold() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(3, 3).unwrap();
        ctx.select_matrix(
            &c,
            NoMask,
            NoAccum,
            ValueGt(3),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(1, 1, 4), (2, 1, 5), (2, 2, 6)]
        );
    }

    #[test]
    fn select_vector_with_closure() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[10, 11, 12, 13]).unwrap();
        let w = Vector::<i32>::new(4).unwrap();
        ctx.select_vector(
            &w,
            NoMask,
            NoAccum,
            select_fn(|i, _, v: &i32| i % 2 == 0 && *v > 10),
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(2, 12)]);
    }

    #[test]
    fn select_on_transposed_input() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(3, 3).unwrap();
        // tril of A^T = transposed triu of A
        ctx.select_matrix(
            &c,
            NoMask,
            NoAccum,
            Tril::new(-1),
            &a(),
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(2, 0, 2)]);
    }

    #[test]
    fn masked_select() {
        let ctx = Context::blocking();
        let mask = Matrix::from_tuples(3, 3, &[(1, 0, true)]).unwrap();
        let c = Matrix::from_tuples(3, 3, &[(0, 0, 99)]).unwrap();
        ctx.select_matrix(
            &c,
            &mask,
            NoAccum,
            Tril::new(0),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        // merge: only (1,0) admitted -> 3; old (0,0) kept
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 99), (1, 0, 3)]);
    }

    #[test]
    fn dims_checked() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(2, 3).unwrap();
        assert!(ctx
            .select_matrix(
                &c,
                NoMask,
                NoAccum,
                Tril::new(0),
                &a(),
                &Descriptor::default()
            )
            .is_err());
    }
}
