//! `GrB_kronecker` (documented extension; GraphBLAS 1.3):
//! `C<Mask> ⊙= kron(A, B)` — the Kronecker product
//! `C(i1·m2 + i2, j1·n2 + j2) = A(i1, j1) ⊗ B(i2, j2)`.
//!
//! The Kronecker product is the generator of Kronecker/RMAT graphs, so
//! this operation lets the benchmark workloads themselves be produced in
//! the language of linear algebra.

use crate::accum::Accumulate;
use crate::algebra::binary::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::kernel::util::{emit_rows, stateless};
use crate::object::mask_arg::MatrixMask;
use crate::object::matrix::oriented_storage;
use crate::object::Matrix;
use crate::op::{effective_dims, Computed, First};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;

/// The Kronecker-product kernel: row `i` of the result interleaves row
/// `i / m2` of `A` with row `i % m2` of `B`.
fn kron_kernel<D1, D2, D3, F>(a: &Csr<D1>, b: &Csr<D2>, mul: &F) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    F: BinaryOp<D1, D2, D3>,
{
    let (m2, n2) = (b.nrows(), b.ncols());
    let nrows = a.nrows() * m2;
    let ncols = a.ncols() * n2;
    emit_rows(
        nrows,
        ncols,
        a.nvals().saturating_mul(b.nvals()),
        stateless,
        |_, i, cols, vals| {
            let (i1, i2) = (i / m2, i % m2);
            let (ac, av) = a.row(i1);
            let (bc, bv) = b.row(i2);
            for (j1, x) in ac.iter().zip(av) {
                for (j2, y) in bc.iter().zip(bv) {
                    cols.push(j1 * n2 + j2);
                    vals.push(mul.apply(x, y));
                }
            }
        },
    )
}

impl Context {
    /// `GrB_kronecker(C, Mask, accum, op, A, B, desc)`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn kronecker<D1, D2, D3, F, Ac, Mk>(
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
        let (am, an) = effective_dims(a, tr_a);
        let (bm, bn) = effective_dims(b, tr_b);
        dim_check(c.shape() == (am * bm, an * bn), || {
            format!(
                "kronecker output is {:?} but result is {}x{}",
                c.shape(),
                am * bm,
                an * bn
            )
        })?;
        let fig2 = self.fig2(c, mask, accum, desc)?.reading(First::Inputs);
        let (a_node, b_node) = (a.handle.capture(), b.handle.capture());
        let inputs = vec![a_node.clone() as _, b_node.clone() as _];
        fig2.submit("kronecker", inputs, move |_, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let b_st = oriented_storage(&b_node, tr_b)?;
            let t = kron_kernel(&a_st, &b_st, &mul);
            mul.poll_error().map_or(Ok(Computed::T(t)), Err)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NoAccum;
    use crate::algebra::binary::Times;
    use crate::mask::NoMask;

    #[test]
    fn small_kronecker_product() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 2, &[(0, 0, 2), (1, 1, 3)]).unwrap();
        let b = Matrix::from_tuples(2, 2, &[(0, 1, 5), (1, 0, 7)]).unwrap();
        let c = Matrix::<i32>::new(4, 4).unwrap();
        ctx.kronecker(
            &c,
            NoMask,
            NoAccum,
            Times::<i32>::new(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 1, 10), (1, 0, 14), (2, 3, 15), (3, 2, 21)]
        );
    }

    #[test]
    fn kronecker_grows_a_graph() {
        // kron of a 2-cycle with itself: the 4-vertex graph of pairs
        let ctx = Context::blocking();
        let k2 = Matrix::from_tuples(2, 2, &[(0, 1, true), (1, 0, true)]).unwrap();
        let c = Matrix::<bool>::new(4, 4).unwrap();
        ctx.kronecker(
            &c,
            NoMask,
            NoAccum,
            crate::algebra::binary::LAnd,
            &k2,
            &k2,
            &Descriptor::default(),
        )
        .unwrap();
        // edges (0,1)x(0,1): (0*2+0 -> 1*2+1) etc.
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 3, true), (1, 2, true), (2, 1, true), (3, 0, true)]
        );
    }

    #[test]
    fn rectangular_dims_and_errors() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 3, &[(0, 2, 1)]).unwrap();
        let b = Matrix::from_tuples(3, 2, &[(2, 0, 1)]).unwrap();
        let c = Matrix::<i32>::new(6, 6).unwrap();
        ctx.kronecker(
            &c,
            NoMask,
            NoAccum,
            Times::<i32>::new(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(2, 4, 1)]);
        let wrong = Matrix::<i32>::new(5, 5).unwrap();
        assert!(ctx
            .kronecker(
                &wrong,
                NoMask,
                NoAccum,
                Times::<i32>::new(),
                &a,
                &b,
                &Descriptor::default()
            )
            .is_err());
    }

    #[test]
    fn kron_is_the_rmat_generator_step() {
        // kron^2 of a seed "initiator" yields the classic Kronecker-graph
        // pattern: nnz multiplies
        let ctx = Context::blocking();
        let seed = Matrix::from_tuples(2, 2, &[(0, 0, 1), (0, 1, 1), (1, 1, 1)]).unwrap();
        let k2 = Matrix::<i32>::new(4, 4).unwrap();
        ctx.kronecker(
            &k2,
            NoMask,
            NoAccum,
            Times::<i32>::new(),
            &seed,
            &seed,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(k2.nvals().unwrap(), 9);
        let k3 = Matrix::<i32>::new(8, 8).unwrap();
        ctx.kronecker(
            &k3,
            NoMask,
            NoAccum,
            Times::<i32>::new(),
            &k2,
            &seed,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(k3.nvals().unwrap(), 27);
    }
}
