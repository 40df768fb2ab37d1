//! `GrB_apply` (Table II): `C<Mask> ⊙= F_u(A)` / `w<mask> ⊙= F_u(u)`.

use crate::accum::Accumulate;
use crate::algebra::unary::UnaryOp;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::kernel::apply::{apply_matrix, apply_vector};
use crate::kernel::write::{write_matrix, write_vector};
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{check_mask_dims1, check_mask_dims2, effective_dims};
use crate::scalar::Scalar;
use crate::storage::engine::MatrixStore;

impl Context {
    /// `GrB_apply` (matrix): apply a unary operator to every stored
    /// element; pattern preserved.
    pub fn apply_matrix<D1, D2, F, Ac, Mk>(
        &self,
        c: &Matrix<D2>,
        mask: Mk,
        accum: Ac,
        f: F,
        a: &Matrix<D1>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        F: UnaryOp<D1, D2>,
        Ac: Accumulate<D2>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let da = effective_dims(a, tr_a);
        dim_check(c.shape() == da, || {
            format!("apply output is {:?} but input is {da:?}", c.shape())
        })?;
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        let a_node = a.handle.capture();
        let msnap = mask.snap(desc);
        let c_old_cap = c.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![a_node.clone() as _];
        deps.extend(c_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let c_old = c_old_cap.storage()?.row_csr();
            let mcsr = msnap.materialize()?;
            let t = apply_matrix(&a_st, &f);
            let out = write_matrix(&c_old, t, &accum, &mcsr, replace);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(MatrixStore::csr(out))
        };
        self.submit("apply", &c.handle, deps, eval)
    }

    /// `GrB_apply` (vector).
    pub fn apply_vector<D1, D2, F, Ac, Mk>(
        &self,
        w: &Vector<D2>,
        mask: Mk,
        accum: Ac,
        f: F,
        u: &Vector<D1>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        F: UnaryOp<D1, D2>,
        Ac: Accumulate<D2>,
        Mk: VectorMask,
    {
        dim_check(w.size() == u.size(), || {
            format!("apply output is {} but input is {}", w.size(), u.size())
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let u_node = u.handle.capture();
        let msnap = mask.snap(desc);
        let w_old_cap = w.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![u_node.clone() as _];
        deps.extend(w_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let u_st = u_node.ready_storage()?;
            let w_old = w_old_cap.storage()?;
            let mvec = msnap.materialize()?;
            let t = apply_vector(&u_st, &f);
            let out = write_vector(&w_old, t, &accum, &mvec, replace);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(out)
        };
        self.submit("apply", &w.handle, deps, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NoAccum;
    use crate::algebra::unary::{unary_fn, Cast, Minv};
    use crate::error::Error;
    use crate::mask::NoMask;

    #[test]
    fn fig3_line57_nspinv() {
        // GrB_apply(&nspinv, NULL, NULL, GrB_MINV_FP32, numsp, NULL)
        let ctx = Context::blocking();
        let numsp = Matrix::from_tuples(2, 2, &[(0, 0, 2.0f32), (1, 1, 4.0)]).unwrap();
        let nspinv = Matrix::<f32>::new(2, 2).unwrap();
        ctx.apply_matrix(
            &nspinv,
            NoMask,
            NoAccum,
            Minv::new(),
            &numsp,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            nspinv.extract_tuples().unwrap(),
            vec![(0, 0, 0.5), (1, 1, 0.25)]
        );
    }

    #[test]
    fn fig3_line41_bool_cast() {
        // sigmas[d] = (Boolean) frontier
        let ctx = Context::blocking();
        let frontier = Matrix::from_tuples(2, 2, &[(0, 1, 7i32)]).unwrap();
        let sigma = Matrix::<bool>::new(2, 2).unwrap();
        ctx.apply_matrix(
            &sigma,
            NoMask,
            NoAccum,
            Cast::<i32, bool>::new(),
            &frontier,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(sigma.extract_tuples().unwrap(), vec![(0, 1, true)]);
    }

    #[test]
    fn apply_transposed_input() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 3, &[(1, 2, 5)]).unwrap();
        let c = Matrix::<i32>::new(3, 2).unwrap();
        ctx.apply_matrix(
            &c,
            NoMask,
            NoAccum,
            unary_fn(|x: &i32| x * 10),
            &a,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(2, 1, 50)]);
    }

    #[test]
    fn apply_vector_masked() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[1, 2, 3]).unwrap();
        let w = Vector::from_tuples(3, &[(0, 100)]).unwrap();
        let mask = Vector::from_tuples(3, &[(1, true)]).unwrap();
        ctx.apply_vector(
            &w,
            &mask,
            NoAccum,
            unary_fn(|x: &i32| -x),
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        // merge mode: (1) admitted -> -2; (0) not admitted -> old 100 kept
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 100), (1, -2)]);
    }

    #[test]
    fn shape_mismatch() {
        let ctx = Context::blocking();
        let a = Matrix::<i32>::new(2, 3).unwrap();
        let c = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(
            ctx.apply_matrix(
                &c,
                NoMask,
                NoAccum,
                Minv::<i32>::new(),
                &a,
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
    }
}
