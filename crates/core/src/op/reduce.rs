//! `GrB_reduce` (Table II): fold matrix rows into a vector with a monoid
//! (`w ⊙= ⊕_j A(:,j)`), or fold a whole collection to a scalar.
//!
//! Scalar reductions export to non-opaque data, so they force completion
//! and execute immediately in every mode (paper §IV). Their fold runs on
//! the calling thread, so a panicking operator is caught there and
//! reported as `GrB_PANIC` (§V), as it is for deferred nodes.

use crate::accum::Accumulate;
use crate::algebra::monoid::Monoid;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::{catch_panic, Context};
use crate::kernel::reduce::{reduce_matrix_scalar, reduce_rows, reduce_vector_scalar};
use crate::kernel::write::write_vector;
use crate::object::mask_arg::VectorMask;
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{check_mask_dims1, effective_dims};
use crate::scalar::Scalar;

impl Context {
    /// `GrB_reduce` (matrix → vector): `w<mask> ⊙= ⊕_j A(:,j)` — one
    /// entry per non-empty row. `GrB_INP0 = GrB_TRAN` reduces columns
    /// instead.
    pub fn reduce_rows<T, M, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        monoid: M,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        M: Monoid<T>,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        let tr_a = desc.is_first_transposed();
        let (am, _) = effective_dims(a, tr_a);
        dim_check(w.size() == am, || {
            format!(
                "reduce output has size {} but matrix has {am} rows",
                w.size()
            )
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let a_node = a.handle.capture();
        let msnap = mask.snap(desc);
        let w_old_cap = w.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![a_node.clone() as _];
        deps.extend(w_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let w_old = w_old_cap.storage()?;
            let mvec = msnap.materialize()?;
            let t = reduce_rows(&a_st, &monoid);
            if let Some(e) = monoid.poll_error() {
                return Err(e);
            }
            let out = write_vector(&w_old, t, &accum, &mvec, replace);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(out)
        };
        self.submit("reduce", &w.handle, deps, eval)
    }

    /// `GrB_reduce` (matrix → scalar): `⊕` over every stored element;
    /// the monoid identity if the matrix is empty. Forces completion.
    pub fn reduce_matrix_to_scalar<T, M>(&self, monoid: M, a: &Matrix<T>) -> Result<T>
    where
        T: Scalar,
        M: Monoid<T>,
    {
        a.handle
            .forced_storage()
            .and_then(|st| {
                catch_panic(|| {
                    let v = reduce_matrix_scalar(&st.row_csr(), &monoid);
                    monoid.poll_error().map_or(Ok(v), Err)
                })
            })
            .inspect_err(|e| self.record_error(e))
    }

    /// `GrB_reduce` (vector → scalar). Forces completion.
    pub fn reduce_vector_to_scalar<T, M>(&self, monoid: M, u: &Vector<T>) -> Result<T>
    where
        T: Scalar,
        M: Monoid<T>,
    {
        u.handle
            .forced_storage()
            .and_then(|st| {
                catch_panic(|| {
                    let v = reduce_vector_scalar(&st, &monoid);
                    monoid.poll_error().map_or(Ok(v), Err)
                })
            })
            .inspect_err(|e| self.record_error(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::algebra::monoid::{MaxMonoid, PlusMonoid};
    use crate::mask::NoMask;

    fn a() -> Matrix<f32> {
        Matrix::from_tuples(3, 2, &[(0, 0, 1.0), (0, 1, 2.0), (2, 1, 4.0)]).unwrap()
    }

    #[test]
    fn row_reduce() {
        let ctx = Context::blocking();
        let w = Vector::<f32>::new(3).unwrap();
        ctx.reduce_rows(
            &w,
            NoMask,
            NoAccum,
            PlusMonoid::new(),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 3.0), (2, 4.0)]);
    }

    #[test]
    fn column_reduce_via_transpose() {
        let ctx = Context::blocking();
        let w = Vector::<f32>::new(2).unwrap();
        ctx.reduce_rows(
            &w,
            NoMask,
            NoAccum,
            PlusMonoid::new(),
            &a(),
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 1.0), (1, 6.0)]);
    }

    #[test]
    fn fig3_line78_reduce_with_accum() {
        // GrB_reduce(delta, NULL, GrB_PLUS_FP32, GrB_PLUS_FP32, bcu, NULL)
        // where delta was pre-filled with -nsver
        let ctx = Context::blocking();
        let delta = Vector::from_dense(&[-2.0f32, -2.0, -2.0]).unwrap();
        ctx.reduce_rows(
            &delta,
            NoMask,
            Accum(Plus::<f32>::new()),
            PlusMonoid::new(),
            &a(),
            &Descriptor::default(),
        )
        .unwrap();
        // row sums {0:3, 2:4} accumulated into -2 fills; row 1 untouched
        assert_eq!(
            delta.extract_tuples().unwrap(),
            vec![(0, 1.0), (1, -2.0), (2, 2.0)]
        );
    }

    #[test]
    fn scalar_reductions() {
        let ctx = Context::blocking();
        assert_eq!(
            ctx.reduce_matrix_to_scalar(PlusMonoid::<f32>::new(), &a())
                .unwrap(),
            7.0
        );
        assert_eq!(
            ctx.reduce_matrix_to_scalar(MaxMonoid::<f32>::new(), &a())
                .unwrap(),
            4.0
        );
        let v = Vector::from_tuples(4, &[(1, 5i64), (2, 6)]).unwrap();
        assert_eq!(
            ctx.reduce_vector_to_scalar(PlusMonoid::<i64>::new(), &v)
                .unwrap(),
            11
        );
        let empty = Matrix::<f32>::new(2, 2).unwrap();
        assert_eq!(
            ctx.reduce_matrix_to_scalar(PlusMonoid::<f32>::new(), &empty)
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn scalar_reduce_forces_deferred_work() {
        use crate::algebra::semiring::plus_times;
        let ctx = Context::nonblocking();
        let x = Matrix::from_tuples(1, 1, &[(0, 0, 3i64)]).unwrap();
        let y = Matrix::<i64>::new(1, 1).unwrap();
        ctx.mxm(
            &y,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &x,
            &x,
            &Descriptor::default(),
        )
        .unwrap();
        assert!(!y.is_complete());
        // scalar reduce must force y
        let s = ctx
            .reduce_matrix_to_scalar(PlusMonoid::<i64>::new(), &y)
            .unwrap();
        assert_eq!(s, 9);
        assert!(y.is_complete());
    }
}
