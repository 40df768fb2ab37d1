//! `GrB_mxm`: `C<Mask> ⊙= A ⊕.⊗ B` (paper, Figure 2).

use crate::accum::Accumulate;
use crate::algebra::semiring::Semiring;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::kernel::mxm::{mxm as mxm_kernel, mxm_dot, prefer_dot, MxmStrategy};
use crate::mask::MaskCsr;
use crate::object::mask_arg::MatrixMask;
use crate::object::matrix::oriented_storage;
use crate::object::Matrix;
use crate::op::{effective_dims, Computed};
use crate::scalar::Scalar;

impl Context {
    /// `GrB_mxm(C, Mask, accum, op, A, B, desc)`: matrix–matrix multiply
    /// over a semiring.
    ///
    /// * `mask` — [`NoMask`](crate::mask::NoMask) or `&Matrix<M>`; the
    ///   descriptor's `GrB_SCMP`/`GrB_STRUCTURE` flags apply.
    /// * `accum` — [`NoAccum`](crate::accum::NoAccum) or
    ///   [`Accum(op)`](crate::accum::Accum).
    /// * `desc` — `GrB_INP0`/`GrB_INP1 = GrB_TRAN` transpose the inputs;
    ///   `GrB_OUTP = GrB_REPLACE` clears unmasked output positions.
    ///
    /// Masked products are computed only at admitted positions; a
    /// non-complemented mask takes the dot-product form whenever that
    /// walks less than the row-wise product would.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn mxm<D1, D2, D3, S, Ac, Mk>(
        &self,
        c: &Matrix<D3>,
        mask: Mk,
        accum: Ac,
        semiring: S,
        a: &Matrix<D1>,
        b: &Matrix<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        D3: Scalar,
        S: Semiring<D1, D2, D3>,
        Ac: Accumulate<D3>,
        Mk: MatrixMask,
    {
        // --- eager API-error checks (both modes, arguments untouched) ---
        let tr_a = desc.is_first_transposed();
        let tr_b = desc.is_second_transposed();
        let (am, ak) = effective_dims(a, tr_a);
        let (bk, bn) = effective_dims(b, tr_b);
        dim_check(ak == bk, || {
            format!("mxm inner dimensions differ: {am}x{ak} times {bk}x{bn}")
        })?;
        dim_check(c.shape() == (am, bn), || {
            format!(
                "mxm output is {}x{} but product is {am}x{bn}",
                c.nrows(),
                c.ncols()
            )
        })?;
        let fig2 = self.fig2(c, mask, accum, desc)?;

        let a_node = a.handle.capture();
        let b_node = b.handle.capture();
        let inputs = vec![a_node.clone() as _, b_node.clone() as _];
        fig2.submit("mxm", inputs, move |mcsr, _, _| {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let b_st = oriented_storage(&b_node, tr_b)?;

            // The product is computed under `mcsr`, always. Masked
            // products take the dot form when it walks less than
            // Gustavson (`prefer_dot`): |B(:,j)| is the effective B's
            // cached column degrees — the stored B's row degrees when the
            // descriptor transposes it — and building Bᵀ is free when the
            // store already holds that view.
            let t = match mcsr {
                MaskCsr::Pattern {
                    pattern,
                    complement: false,
                } if pattern.nvals() > 0 => {
                    let flops: usize = a_st.col_idx().iter().map(|&k| b_st.row_nvals(k)).sum();
                    let b_store = b_node.ready_storage()?;
                    let b_col_degrees = if tr_b {
                        b_store.row_degrees()
                    } else {
                        b_store.col_degrees()
                    };
                    let bt_cost = if b_store.csr_view_ready(!tr_b) {
                        0
                    } else {
                        b_st.nvals()
                    };
                    if prefer_dot(&a_st, pattern, &b_col_degrees, bt_cost, flops) {
                        // B^T comes from the store's memoized column
                        // view; if the descriptor already transposed B,
                        // the effective B^T is B itself.
                        let bt_st = oriented_storage(&b_node, !tr_b)?;
                        mxm_dot(&semiring, &a_st, &bt_st, pattern)
                    } else {
                        mxm_kernel(&semiring, &a_st, &b_st, mcsr, MxmStrategy::Auto)
                    }
                }
                _ => mxm_kernel(&semiring, &a_st, &b_st, mcsr, MxmStrategy::Auto),
            };
            semiring.poll_error().map_or(Ok(Computed::Masked(t)), Err)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::algebra::semiring::plus_times;
    use crate::error::Error;
    use crate::mask::NoMask;

    fn m(t: &[(usize, usize, i32)], r: usize, c: usize) -> Matrix<i32> {
        Matrix::from_tuples(r, c, t).unwrap()
    }

    #[test]
    fn basic_product() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 1), (0, 1, 2), (1, 1, 3)], 2, 2);
        let b = m(&[(0, 0, 4), (1, 0, 5), (1, 1, 6)], 2, 2);
        let c = Matrix::<i32>::new(2, 2).unwrap();
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 14), (0, 1, 12), (1, 0, 15), (1, 1, 18)]
        );
    }

    #[test]
    fn dimension_mismatch_is_eager_api_error() {
        let ctx = Context::nonblocking();
        let a = m(&[(0, 0, 1)], 2, 3);
        let b = m(&[(0, 0, 1)], 2, 2); // inner mismatch: 3 vs 2
        let c = Matrix::<i32>::new(2, 2).unwrap();
        let e = ctx
            .mxm(
                &c,
                NoMask,
                NoAccum,
                plus_times::<i32>(),
                &a,
                &b,
                &Descriptor::default(),
            )
            .unwrap_err();
        assert!(matches!(e, Error::DimensionMismatch(_)));
        // output untouched (still empty, still valid)
        assert_eq!(c.nvals().unwrap(), 0);
    }

    #[test]
    fn transpose_descriptor_fixes_dimensions() {
        let ctx = Context::blocking();
        let a = m(&[(0, 1, 2)], 3, 2); // A: 3x2, A^T: 2x3
        let b = m(&[(2, 0, 5)], 3, 2);
        let c = Matrix::<i32>::new(2, 2).unwrap();
        // C = A^T * B requires INP0 transposed
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![]);
        // with a value on the path: A^T(1,0)*B(0,?) etc.
        let a = m(&[(0, 1, 2)], 3, 2);
        let b = m(&[(0, 0, 5)], 3, 2);
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(1, 0, 10)]);
    }

    #[test]
    fn accumulate_into_existing_output() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 2)], 1, 1);
        let b = m(&[(0, 0, 3)], 1, 1);
        let c = m(&[(0, 0, 100)], 1, 1);
        ctx.mxm(
            &c,
            NoMask,
            Accum(Plus::<i32>::new()),
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(c.get(0, 0).unwrap(), Some(106));
    }

    #[test]
    fn masked_product_with_replace() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 1), (1, 0, 1)], 2, 1);
        let b = m(&[(0, 0, 7), (0, 1, 8)], 1, 2);
        let c = m(&[(0, 0, 50)], 2, 2);
        let mask = m(&[(0, 1, 1), (1, 0, 1)], 2, 2);
        ctx.mxm(
            &c,
            &mask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default().replace(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 1, 8), (1, 0, 7)]);
    }

    #[test]
    fn aliased_output_and_input_uses_snapshot() {
        // C = C * C is well defined here: inputs are pre-call snapshots
        let ctx = Context::blocking();
        let c = m(&[(0, 1, 1), (1, 0, 1)], 2, 2);
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &c,
            &c,
            &Descriptor::default(),
        )
        .unwrap();
        // [[0,1],[1,0]]^2 = I
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 1), (1, 1, 1)]);
    }

    #[test]
    fn nonblocking_defers_and_wait_completes() {
        let ctx = Context::nonblocking();
        let a = m(&[(0, 0, 2)], 1, 1);
        let b = m(&[(0, 0, 3)], 1, 1);
        let c = Matrix::<i32>::new(1, 1).unwrap();
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert!(!c.is_complete());
        ctx.wait().unwrap();
        assert!(c.is_complete());
        assert_eq!(c.get(0, 0).unwrap(), Some(6));
    }

    #[test]
    fn mask_dimension_mismatch_rejected() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 1)], 2, 2);
        let c = Matrix::<i32>::new(2, 2).unwrap();
        let mask = m(&[(0, 0, 1)], 3, 2);
        let e = ctx
            .mxm(
                &c,
                &mask,
                NoAccum,
                plus_times::<i32>(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap_err();
        assert!(matches!(e, Error::DimensionMismatch(_)));
    }
}
