//! `GrB_eWiseAdd` / `GrB_eWiseMult` (Table II): element-wise union and
//! intersection combines.
//!
//! `eWiseMult` takes a general `⊗ : D1 × D2 → D3` (only the stored-pattern
//! intersection is touched); `eWiseAdd` requires one domain (elements
//! stored in exactly one operand pass through unchanged, so all three
//! domains coincide — the C API would insert implicit casts here, which
//! the typed binding surfaces as an explicit `apply(Cast)`).

use crate::accum::Accumulate;
use crate::algebra::binary::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::kernel::ewise;
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{effective_dims, Computed};
use crate::scalar::Scalar;

impl Context {
    /// `GrB_eWiseAdd` (matrix): `C<Mask> ⊙= A ⊕ B`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn ewise_add_matrix<T, F, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        add: F,
        a: &Matrix<T>,
        b: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        F: BinaryOp<T, T, T>,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let tr_b = desc.is_second_transposed();
        let da = effective_dims(a, tr_a);
        let db = effective_dims(b, tr_b);
        dim_check(da == db, || {
            format!("eWiseAdd operands differ: {da:?} vs {db:?}")
        })?;
        dim_check(c.shape() == da, || {
            format!("eWiseAdd output is {:?} but operands are {da:?}", c.shape())
        })?;
        let fig2 = self.fig2(c, mask, accum, desc)?;
        let (a_node, b_node) = (a.handle.capture(), b.handle.capture());
        let inputs = vec![a_node.clone() as _, b_node.clone() as _];
        fig2.submit("eWiseAdd", inputs, move |_, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let b_st = oriented_storage(&b_node, tr_b)?;
            let t = ewise::ewise_add_matrix(&a_st, &b_st, &add);
            add.poll_error().map_or(Ok(Computed::T(t)), Err)
        })
    }

    /// `GrB_eWiseMult` (matrix): `C<Mask> ⊙= A ⊗ B`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn ewise_mult_matrix<D1, D2, D3, F, Ac, Mk>(
        &self,
        c: &Matrix<D3>,
        mask: Mk,
        accum: Ac,
        mul: F,
        a: &Matrix<D1>,
        b: &Matrix<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        D3: Scalar,
        F: BinaryOp<D1, D2, D3>,
        Ac: Accumulate<D3>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let tr_b = desc.is_second_transposed();
        let da = effective_dims(a, tr_a);
        let db = effective_dims(b, tr_b);
        dim_check(da == db, || {
            format!("eWiseMult operands differ: {da:?} vs {db:?}")
        })?;
        dim_check(c.shape() == da, || {
            format!(
                "eWiseMult output is {:?} but operands are {da:?}",
                c.shape()
            )
        })?;
        let fig2 = self.fig2(c, mask, accum, desc)?;
        let (a_node, b_node) = (a.handle.capture(), b.handle.capture());
        let inputs = vec![a_node.clone() as _, b_node.clone() as _];
        // The intersection is computed only where the mask admits, so the
        // write stage sees a T already under the operation's own mask.
        fig2.submit("eWiseMult", inputs, move |mcsr, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let b_st = oriented_storage(&b_node, tr_b)?;
            let t = ewise::ewise_mult_matrix(&a_st, &b_st, mcsr, &mul);
            mul.poll_error().map_or(Ok(Computed::Masked(t)), Err)
        })
    }

    /// `GrB_eWiseAdd` (vector): `w<mask> ⊙= u ⊕ v`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn ewise_add_vector<T, F, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        add: F,
        u: &Vector<T>,
        v: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        F: BinaryOp<T, T, T>,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        dim_check(u.size() == v.size(), || {
            format!("eWiseAdd operands differ: {} vs {}", u.size(), v.size())
        })?;
        dim_check(w.size() == u.size(), || {
            format!(
                "eWiseAdd output is {} but operands are {}",
                w.size(),
                u.size()
            )
        })?;
        let fig2 = self.fig2(w, mask, accum, desc)?;
        let (u_node, v_node) = (u.handle.capture(), v.handle.capture());
        let inputs = vec![u_node.clone() as _, v_node.clone() as _];
        fig2.submit("eWiseAdd", inputs, move |_, _, _| {
            let (u_st, v_st) = (u_node.ready_storage()?, v_node.ready_storage()?);
            let t = ewise::ewise_add_vector(&u_st, &v_st, &add);
            add.poll_error().map_or(Ok(Computed::T(t)), Err)
        })
    }

    /// `GrB_eWiseMult` (vector): `w<mask> ⊙= u ⊗ v`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn ewise_mult_vector<D1, D2, D3, F, Ac, Mk>(
        &self,
        w: &Vector<D3>,
        mask: Mk,
        accum: Ac,
        mul: F,
        u: &Vector<D1>,
        v: &Vector<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        D3: Scalar,
        F: BinaryOp<D1, D2, D3>,
        Ac: Accumulate<D3>,
        Mk: VectorMask,
    {
        dim_check(u.size() == v.size(), || {
            format!("eWiseMult operands differ: {} vs {}", u.size(), v.size())
        })?;
        dim_check(w.size() == u.size(), || {
            format!(
                "eWiseMult output is {} but operands are {}",
                w.size(),
                u.size()
            )
        })?;
        let fig2 = self.fig2(w, mask, accum, desc)?;
        let (u_node, v_node) = (u.handle.capture(), v.handle.capture());
        let inputs = vec![u_node.clone() as _, v_node.clone() as _];
        fig2.submit("eWiseMult", inputs, move |_, _, _| {
            let (u_st, v_st) = (u_node.ready_storage()?, v_node.ready_storage()?);
            let t = ewise::ewise_mult_vector(&u_st, &v_st, &mul);
            mul.poll_error().map_or(Ok(Computed::T(t)), Err)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::{Plus, Times};
    use crate::error::Error;
    use crate::mask::NoMask;

    #[test]
    fn matrix_add_and_mult() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 2, &[(0, 0, 1), (0, 1, 2)]).unwrap();
        let b = Matrix::from_tuples(2, 2, &[(0, 0, 10), (1, 1, 20)]).unwrap();
        let c = Matrix::<i32>::new(2, 2).unwrap();
        ctx.ewise_add_matrix(
            &c,
            NoMask,
            NoAccum,
            Plus::new(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 11), (0, 1, 2), (1, 1, 20)]
        );
        ctx.ewise_mult_matrix(
            &c,
            NoMask,
            NoAccum,
            Times::new(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 10)]);
    }

    #[test]
    fn fig3_line42_numsp_accumulation() {
        // GrB_eWiseAdd(&numsp, NULL, NULL, Int32Add, numsp, frontier, NULL)
        let ctx = Context::blocking();
        let numsp = Matrix::from_tuples(3, 1, &[(0, 0, 1)]).unwrap();
        let frontier = Matrix::from_tuples(3, 1, &[(1, 0, 2), (2, 0, 1)]).unwrap();
        ctx.ewise_add_matrix(
            &numsp,
            NoMask,
            NoAccum,
            Plus::<i32>::new(),
            &numsp,
            &frontier,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            numsp.extract_tuples().unwrap(),
            vec![(0, 0, 1), (1, 0, 2), (2, 0, 1)]
        );
    }

    #[test]
    fn vector_variants_with_mask_and_accum() {
        let ctx = Context::blocking();
        let u = Vector::from_tuples(3, &[(0, 1), (1, 2)]).unwrap();
        let v = Vector::from_tuples(3, &[(1, 10), (2, 20)]).unwrap();
        let w = Vector::from_tuples(3, &[(2, 100)]).unwrap();
        let mask = Vector::from_tuples(3, &[(1, true), (2, true)]).unwrap();
        ctx.ewise_add_vector(
            &w,
            &mask,
            Accum(Plus::<i32>::new()),
            Plus::new(),
            &u,
            &v,
            &Descriptor::default(),
        )
        .unwrap();
        // t = {0:1, 1:12, 2:20}; admitted {1,2}: w(1)=12, w(2)=100+20;
        // w(0) old absent kept absent
        assert_eq!(w.extract_tuples().unwrap(), vec![(1, 12), (2, 120)]);

        let w2 = Vector::<i32>::new(3).unwrap();
        ctx.ewise_mult_vector(
            &w2,
            NoMask,
            NoAccum,
            Times::new(),
            &u,
            &v,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w2.extract_tuples().unwrap(), vec![(1, 20)]);
    }

    #[test]
    fn mixed_domain_mult() {
        use crate::algebra::binary::binary_fn;
        let ctx = Context::blocking();
        let counts = Matrix::from_tuples(1, 2, &[(0, 0, 4i32), (0, 1, 9)]).unwrap();
        let scales = Matrix::from_tuples(1, 2, &[(0, 0, 0.5f64), (0, 1, 2.0)]).unwrap();
        let out = Matrix::<f64>::new(1, 2).unwrap();
        ctx.ewise_mult_matrix(
            &out,
            NoMask,
            NoAccum,
            binary_fn(|c: &i32, s: &f64| *c as f64 * s),
            &counts,
            &scales,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            out.extract_tuples().unwrap(),
            vec![(0, 0, 2.0), (0, 1, 18.0)]
        );
    }

    #[test]
    fn transposed_operands() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 3, &[(0, 2, 5)]).unwrap();
        let b = Matrix::from_tuples(3, 2, &[(2, 0, 7)]).unwrap();
        let c = Matrix::<i32>::new(2, 3).unwrap();
        ctx.ewise_add_matrix(
            &c,
            NoMask,
            NoAccum,
            Plus::new(),
            &a,
            &b,
            &Descriptor::default().transpose_second(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 2, 12)]);
    }

    #[test]
    fn dimension_mismatch() {
        let ctx = Context::blocking();
        let a = Matrix::<i32>::new(2, 2).unwrap();
        let b = Matrix::<i32>::new(2, 3).unwrap();
        let c = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(
            ctx.ewise_add_matrix(
                &c,
                NoMask,
                NoAccum,
                Plus::<i32>::new(),
                &a,
                &b,
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
        let u = Vector::<i32>::new(2).unwrap();
        let v = Vector::<i32>::new(3).unwrap();
        let w = Vector::<i32>::new(2).unwrap();
        assert!(matches!(
            ctx.ewise_mult_vector(
                &w,
                NoMask,
                NoAccum,
                Times::<i32>::new(),
                &u,
                &v,
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
    }
}
