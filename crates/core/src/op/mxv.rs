//! `GrB_mxv` and `GrB_vxm` (Table II): matrix–vector products over a
//! semiring.

use crate::accum::Accumulate;
use crate::algebra::binary::BinaryOp;
use crate::algebra::semiring::Semiring;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::kernel::spmspv;
use crate::kernel::write::write_masked_vector;
use crate::object::mask_arg::VectorMask;
use crate::object::{Matrix, Vector};
use crate::op::{check_mask_dims1, effective_dims};
use crate::scalar::Scalar;

impl Context {
    /// `GrB_mxv(w, mask, accum, op, A, u, desc)`:
    /// `w<mask> ⊙= A ⊕.⊗ u`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn mxv<D1, D2, D3, S, Ac, Mk>(
        &self,
        w: &Vector<D3>,
        mask: Mk,
        accum: Ac,
        semiring: S,
        a: &Matrix<D1>,
        u: &Vector<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        D3: Scalar,
        S: Semiring<D1, D2, D3>,
        Ac: Accumulate<D3>,
        Mk: VectorMask,
    {
        let tr_a = desc.is_first_transposed();
        let (am, ak) = effective_dims(a, tr_a);
        dim_check(ak == u.size(), || {
            format!("mxv: matrix is {am}x{ak} but vector has size {}", u.size())
        })?;
        dim_check(w.size() == am, || {
            format!(
                "mxv: output has size {} but product has size {am}",
                w.size()
            )
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let a_node = a.handle.capture();
        let u_node = u.handle.capture();
        let msnap = mask.snap(desc);
        let w_old_cap = w.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![a_node.clone() as _, u_node.clone() as _];
        deps.extend(w_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();
        let eval = move || {
            let w_old = w_old_cap.storage()?;
            let mvec = msnap.materialize()?;
            let u_st = u_node.ready_storage()?;
            let a_st = a_node.ready_storage()?;
            let t = spmspv::mxv(&semiring, &a_st, &u_st, tr_a, &mvec);
            if let Some(e) = semiring
                .add()
                .poll_error()
                .or_else(|| semiring.mul().poll_error())
            {
                return Err(e);
            }
            let out = write_masked_vector(&w_old, t, &accum, &mvec, replace);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(out)
        };
        self.submit("mxv", &w.handle, deps, eval)
    }

    /// `GrB_vxm(w, mask, accum, op, u, A, desc)`:
    /// `w^T<mask^T> ⊙= u^T ⊕.⊗ A`. The descriptor's `GrB_INP1` transposes
    /// `A` (the matrix is the *second* input here).
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn vxm<D1, D2, D3, S, Ac, Mk>(
        &self,
        w: &Vector<D3>,
        mask: Mk,
        accum: Ac,
        semiring: S,
        u: &Vector<D1>,
        a: &Matrix<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        D3: Scalar,
        S: Semiring<D1, D2, D3>,
        Ac: Accumulate<D3>,
        Mk: VectorMask,
    {
        let tr_a = desc.is_second_transposed();
        let (ak, an) = effective_dims(a, tr_a);
        dim_check(u.size() == ak, || {
            format!("vxm: vector has size {} but matrix is {ak}x{an}", u.size())
        })?;
        dim_check(w.size() == an, || {
            format!(
                "vxm: output has size {} but product has size {an}",
                w.size()
            )
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let a_node = a.handle.capture();
        let u_node = u.handle.capture();
        let msnap = mask.snap(desc);
        let w_old_cap = w.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![a_node.clone() as _, u_node.clone() as _];
        deps.extend(w_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let w_old = w_old_cap.storage()?;
            let mvec = msnap.materialize()?;
            let a_st = a_node.ready_storage()?;
            let u_st = u_node.ready_storage()?;
            let t = spmspv::vxm(&semiring, &u_st, &a_st, tr_a, &mvec);
            if let Some(e) = semiring
                .add()
                .poll_error()
                .or_else(|| semiring.mul().poll_error())
            {
                return Err(e);
            }
            let out = write_masked_vector(&w_old, t, &accum, &mvec, replace);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(out)
        };
        self.submit("vxm", &w.handle, deps, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::algebra::semiring::{lor_land, plus_times};
    use crate::error::Error;
    use crate::mask::NoMask;

    fn a() -> Matrix<i32> {
        Matrix::from_tuples(2, 3, &[(0, 0, 1), (0, 2, 2), (1, 1, 3)]).unwrap()
    }

    #[test]
    fn mxv_basic() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[10, 20, 30]).unwrap();
        let w = Vector::<i32>::new(2).unwrap();
        ctx.mxv(
            &w,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a(),
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 70), (1, 60)]);
    }

    #[test]
    fn vxm_basic() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[10, 20]).unwrap();
        let w = Vector::<i32>::new(3).unwrap();
        ctx.vxm(
            &w,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &u,
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 10), (1, 60), (2, 20)]);
    }

    #[test]
    fn mxv_with_transpose_equals_vxm() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[10, 20]).unwrap();
        let w1 = Vector::<i32>::new(3).unwrap();
        let w2 = Vector::<i32>::new(3).unwrap();
        ctx.mxv(
            &w1,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a(),
            &u,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        ctx.vxm(
            &w2,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &u,
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w1.extract_tuples().unwrap(), w2.extract_tuples().unwrap());
    }

    #[test]
    fn bfs_step_with_complemented_mask() {
        // classic BFS frontier update: next<!visited> = frontier lor.land A
        let ctx = Context::blocking();
        let adj = Matrix::from_tuples(3, 3, &[(0, 1, true), (1, 2, true), (1, 0, true)]).unwrap();
        let frontier = Vector::from_tuples(3, &[(1, true)]).unwrap();
        let visited = Vector::from_tuples(3, &[(0, true), (1, true)]).unwrap();
        let next = Vector::<bool>::new(3).unwrap();
        ctx.vxm(
            &next,
            &visited,
            NoAccum,
            lor_land(),
            &frontier,
            &adj,
            &Descriptor::default().complement_mask().replace(),
        )
        .unwrap();
        // frontier {1} reaches {0, 2}; visited {0,1} masked out -> {2}
        assert_eq!(next.extract_tuples().unwrap(), vec![(2, true)]);
    }

    #[test]
    fn accumulate_into_vector() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[1, 1, 1]).unwrap();
        let w = Vector::from_tuples(2, &[(0, 100)]).unwrap();
        ctx.mxv(
            &w,
            NoMask,
            Accum(Plus::<i32>::new()),
            plus_times::<i32>(),
            &a(),
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 103), (1, 3)]);
    }

    #[test]
    fn dimension_errors() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[1, 1]).unwrap(); // wrong size
        let w = Vector::<i32>::new(2).unwrap();
        assert!(matches!(
            ctx.mxv(
                &w,
                NoMask,
                NoAccum,
                plus_times::<i32>(),
                &a(),
                &u,
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
        let u3 = Vector::from_dense(&[1, 1, 1]).unwrap();
        let w_bad = Vector::<i32>::new(3).unwrap();
        assert!(matches!(
            ctx.mxv(
                &w_bad,
                NoMask,
                NoAccum,
                plus_times::<i32>(),
                &a(),
                &u3,
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
        assert!(matches!(
            ctx.vxm(
                &w_bad,
                NoMask,
                NoAccum,
                plus_times::<i32>(),
                &u3,
                &a(),
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
    }
}
