//! `GrB_transpose` (Table II): `C<Mask> ⊙= A^T`.
//!
//! The plain form (`C = A^T`, no mask/accum) resolves to the input node's
//! memoized transpose, so repeated transposition of the same operand —
//! and a `transpose` followed by operations that ask for `A^T` again —
//! costs one counting sort in total (the nonblocking "don't rematerialize"
//! latitude of §IV).

use crate::accum::Accumulate;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::kernel::write::write_matrix;
use crate::object::mask_arg::MatrixMask;
use crate::object::matrix::oriented_storage;
use crate::object::Matrix;
use crate::op::{check_mask_dims2, effective_dims};
use crate::scalar::Scalar;
use crate::storage::engine::MatrixStore;

impl Context {
    /// `GrB_transpose(C, Mask, accum, A, desc)`.
    ///
    /// Note the C API quirk, preserved here: `GrB_INP0 = GrB_TRAN`
    /// transposes the input *before* the operation's own transposition, so
    /// setting it makes the operation copy `A` as-is.
    pub fn transpose<T, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        // the operation transposes on top of the descriptor
        let (am, an) = effective_dims(a, !tr_a);
        dim_check(c.shape() == (am, an), || {
            format!(
                "transpose output is {:?} but result is {am}x{an}",
                c.shape()
            )
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
            let t_st = oriented_storage(&a_node, !tr_a)?;
            let c_old = c_old_cap.storage()?.row_csr();
            let mcsr = msnap.materialize()?;
            let out = write_matrix(&c_old, (*t_st).clone(), &accum, &mcsr, replace);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(MatrixStore::csr(out))
        };
        self.submit("transpose", &c.handle, deps, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::error::Error;
    use crate::mask::NoMask;

    #[test]
    fn plain_transpose() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 3, &[(0, 2, 5), (1, 0, 7)]).unwrap();
        let c = Matrix::<i32>::new(3, 2).unwrap();
        ctx.transpose(&c, NoMask, NoAccum, &a, &Descriptor::default())
            .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 1, 7), (2, 0, 5)]);
    }

    #[test]
    fn transpose_of_transpose_is_copy() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 3, &[(0, 2, 5)]).unwrap();
        let c = Matrix::<i32>::new(2, 3).unwrap();
        ctx.transpose(
            &c,
            NoMask,
            NoAccum,
            &a,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), a.extract_tuples().unwrap());
    }

    #[test]
    fn masked_accumulated_transpose() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 2, &[(0, 1, 5), (1, 0, 7)]).unwrap();
        let c = Matrix::from_tuples(2, 2, &[(0, 1, 100)]).unwrap();
        let mask = Matrix::from_tuples(2, 2, &[(0, 1, true)]).unwrap();
        ctx.transpose(
            &c,
            &mask,
            Accum(Plus::<i32>::new()),
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        // T = A^T has (0,1)=7; admitted (0,1): 100+7; nothing else admitted
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 1, 107)]);
    }

    #[test]
    fn dims_checked() {
        let ctx = Context::blocking();
        let a = Matrix::<i32>::new(2, 3).unwrap();
        let c = Matrix::<i32>::new(2, 3).unwrap(); // should be 3x2
        assert!(matches!(
            ctx.transpose(&c, NoMask, NoAccum, &a, &Descriptor::default()),
            Err(Error::DimensionMismatch(_))
        ));
    }
}
