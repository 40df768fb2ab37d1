//! The GraphBLAS operations with C-style dynamic arguments: optional
//! masks (`GrB_NULL`), optional accumulators, runtime-typed semirings
//! and operators, and runtime domain checking.
//!
//! Domain rules (the C API's): operand values are implicitly cast to the
//! operator's input domains; the *output* collection's domain must equal
//! the operation's result domain (`GrB_DOMAIN_MISMATCH` otherwise);
//! accumulators must accumulate in the output domain.
//!
//! Every wrapper funnels through one dispatch path. `in_lane!` matches
//! the output's lane once per call, casts each operand into that lane
//! (`cast_m`/`cast_v`: borrowed when already there, a value map over its
//! entries otherwise), binds the accumulator over the lane as a run-time
//! `Option`, and calls the typed core. The mask's domain is erased when
//! the core snaps it (`Mask`), so neither the mask nor the accumulator
//! multiplies the instantiations: one per output lane. `dispatch!`
//! adds the one exception: an operator that spans several domains into a
//! built-in output is computed on the `Value` lane and its result cast
//! into the output under the mask and accumulator.

use graphblas_core::descriptor::Descriptor;
use graphblas_core::error::Result;
use graphblas_core::exec::Context;
use graphblas_core::index::{Index, IndexSelection, ALL};
use graphblas_core::object::mask_arg::{MaskSnap1, MaskSnap2, MatrixMask, VectorMask};
use graphblas_core::object::{Matrix, Vector};
use graphblas_core::scalar::CastFrom;

use crate::collections::{cast_m, cast_v, GrbMatrix, GrbVector, MatLane, VecLane};
use crate::context::{ctx, record_api};
use crate::ops::{
    Elem, GrbBinaryOp, GrbMonoid, GrbSelectOp, GrbSemiring, GrbUnaryOp, LaneOp, LaneUnary,
};
use crate::value::Value;

/// Acquire the live session and run `body` with API-error recording —
/// the shared entry/exit path of every operation wrapper. A missing
/// session is returned unrecorded (there is nowhere to record it).
fn recorded<R>(body: impl FnOnce(&Context) -> Result<R>) -> Result<R> {
    let ctx = ctx()?;
    record_api(&ctx, || body(&ctx))
}

/// A `GrB_NULL`-or-handle mask argument. The core snaps it through the
/// mask's own lane, so one mask type serves every mask domain.
pub(crate) struct Mask<'a, H>(Option<&'a H>);

impl MatrixMask for Mask<'_, GrbMatrix> {
    fn mask_dims(&self) -> Option<(Index, Index)> {
        self.0.map(|m| (m.nrows(), m.ncols()))
    }

    fn snap(&self, desc: &Descriptor) -> MaskSnap2 {
        match self.0 {
            None => MaskSnap2::All,
            Some(m) => lane!(MatLane, &m.m, x: T => MatrixMask::snap(&x, desc)),
        }
    }
}

impl VectorMask for Mask<'_, GrbVector> {
    fn mask_size(&self) -> Option<Index> {
        self.0.map(GrbVector::size)
    }

    fn snap(&self, desc: &Descriptor) -> MaskSnap1 {
        match self.0 {
            None => MaskSnap1::All,
            Some(v) => lane!(VecLane, &v.v, x: T => VectorMask::snap(&x, desc)),
        }
    }
}

/// Run the typed core call `$call` in the output's lane: `$o` is the
/// output's `Matrix<T>`/`Vector<T>` with `$T` its element, `$mk` the mask
/// and `$ac` the `GrB_NULL`-or-operator accumulator over `$T`, an
/// `Option` decided at run time, so each lane instantiates the core once.
macro_rules! in_lane {
    ($out:ident: $Lane:ident, $mask:expr, $accum:expr,
     |$o:ident: $T:ident, $mk:ident, $ac:ident| $call:expr) => {{
        if let Some(f) = $accum {
            f.check_accum($out.domain())?;
        }
        lane!($Lane, $out.m_lane(), $o: $T => {
            let ($mk, $ac) = (Mask($mask), $accum.map(LaneOp::<$T>::new));
            $call
        })
    }};
}

/// [`in_lane!`] for an operator call. When the operator maps one domain
/// to itself (`$uniform`), or the output is of a user-defined domain, the
/// call runs in the output's lane. Otherwise `$call` runs once on the
/// `Value` lane into a temporary, which is then cast into the output
/// under the mask and accumulator.
macro_rules! dispatch {
    ($ctx:ident, $out:ident: $Lane:ident, $mask:expr, $accum:expr, $desc:expr, $uniform:expr,
     |$o:ident: $T:ident, $mk:ident, $ac:ident| $call:expr) => {{
        if $uniform || $out.domain().is_udf() {
            in_lane!($out: $Lane, $mask, $accum, |$o: $T, $mk, $ac| $call)
        } else {
            let tmp = $Lane::Udf($out.value_twin()?);
            let $Lane::Udf($o) = &tmp else {
                unreachable!()
            };
            #[allow(dead_code)]
            type $T = Value;
            let ($mk, $ac) = (Mask($mask.filter(|_| false)), None::<LaneOp<Value>>);
            $call?;
            $out.write_back($ctx, $mask, $accum, &tmp, $desc)
        }
    }};
}

/// The write-back's descriptor: the mask and replace flags of `d`, no
/// input transposes.
fn plain(d: &Descriptor) -> Descriptor {
    let mut p = Descriptor::default();
    if d.is_replace() {
        p = p.replace();
    }
    if d.is_mask_complemented() {
        p = p.complement_mask();
    }
    if d.is_mask_structural() {
        p = p.structural_mask();
    }
    p
}

impl GrbMatrix {
    fn m_lane(&self) -> &MatLane {
        &self.m
    }

    fn value_twin(&self) -> Result<Matrix<Value>> {
        Matrix::new(self.nrows(), self.ncols())
    }

    /// `C<Mask> ⊙= T`, `T` cast into this matrix's lane.
    fn write_back(
        &self,
        ctx: &Context,
        mask: Option<&GrbMatrix>,
        accum: Option<&GrbBinaryOp>,
        t: &MatLane,
        desc: &Descriptor,
    ) -> Result<()> {
        assign_m(ctx, self, mask, accum, t, ALL, ALL, &plain(desc))
    }
}

impl GrbVector {
    fn m_lane(&self) -> &VecLane {
        &self.v
    }

    fn value_twin(&self) -> Result<Vector<Value>> {
        Vector::new(self.size())
    }

    /// `w<mask> ⊙= t`, `t` cast into this vector's lane.
    fn write_back(
        &self,
        ctx: &Context,
        mask: Option<&GrbVector>,
        accum: Option<&GrbBinaryOp>,
        t: &VecLane,
        desc: &Descriptor,
    ) -> Result<()> {
        assign_v(ctx, self, mask, accum, t, ALL, &plain(desc))
    }
}

/// `GrB_mxm(C, Mask, accum, op, A, B, desc)`.
pub fn mxm(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbSemiring,
    a: &GrbMatrix,
    b: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(op.d3(), "output C")?;
        a.domain().expect_castable_to(op.d1(), "input A")?;
        b.domain().expect_castable_to(op.d2(), "input B")?;
        dispatch!(ctx, c: MatLane, mask, accum, desc, op.mul.is_uniform(), |o: T, mk, ac| {
            let (a, b) = (cast_m::<T>(&a.m)?, cast_m::<T>(&b.m)?);
            ctx.mxm(o, mk, ac, op.lane::<T>(), &*a, &*b, desc)
        })
    })
}

/// `GrB_mxv(w, mask, accum, op, A, u, desc)`.
pub fn mxv(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbSemiring,
    a: &GrbMatrix,
    u: &GrbVector,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(op.d3(), "output w")?;
        a.domain().expect_castable_to(op.d1(), "input A")?;
        u.domain().expect_castable_to(op.d2(), "input u")?;
        dispatch!(ctx, w: VecLane, mask, accum, desc, op.mul.is_uniform(), |o: T, mk, ac| {
            let (a, u) = (cast_m::<T>(&a.m)?, cast_v::<T>(&u.v)?);
            ctx.mxv(o, mk, ac, op.lane::<T>(), &*a, &*u, desc)
        })
    })
}

/// `GrB_vxm(w, mask, accum, op, u, A, desc)`.
pub fn vxm(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbSemiring,
    u: &GrbVector,
    a: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(op.d3(), "output w")?;
        u.domain().expect_castable_to(op.d1(), "input u")?;
        a.domain().expect_castable_to(op.d2(), "input A")?;
        dispatch!(ctx, w: VecLane, mask, accum, desc, op.mul.is_uniform(), |o: T, mk, ac| {
            let (u, a) = (cast_v::<T>(&u.v)?, cast_m::<T>(&a.m)?);
            ctx.vxm(o, mk, ac, op.lane::<T>(), &*u, &*a, desc)
        })
    })
}

/// `GrB_eWiseAdd` (matrix).
pub fn ewise_add_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbBinaryOp,
    a: &GrbMatrix,
    b: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(op.d3, "output C")?;
        a.domain().expect_castable_to(op.d1, "input A")?;
        b.domain().expect_castable_to(op.d2, "input B")?;
        dispatch!(ctx, c: MatLane, mask, accum, desc, op.is_uniform(), |o: T, mk, ac| {
            let (a, b) = (cast_m::<T>(&a.m)?, cast_m::<T>(&b.m)?);
            ctx.ewise_add_matrix(o, mk, ac, LaneOp::new(op), &*a, &*b, desc)
        })
    })
}

/// `GrB_eWiseMult` (matrix).
pub fn ewise_mult_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbBinaryOp,
    a: &GrbMatrix,
    b: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(op.d3, "output C")?;
        a.domain().expect_castable_to(op.d1, "input A")?;
        b.domain().expect_castable_to(op.d2, "input B")?;
        dispatch!(ctx, c: MatLane, mask, accum, desc, op.is_uniform(), |o: T, mk, ac| {
            let (a, b) = (cast_m::<T>(&a.m)?, cast_m::<T>(&b.m)?);
            ctx.ewise_mult_matrix(o, mk, ac, LaneOp::new(op), &*a, &*b, desc)
        })
    })
}

/// `GrB_eWiseAdd` (vector).
pub fn ewise_add_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbBinaryOp,
    u: &GrbVector,
    v: &GrbVector,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(op.d3, "output w")?;
        u.domain().expect_castable_to(op.d1, "input u")?;
        v.domain().expect_castable_to(op.d2, "input v")?;
        dispatch!(ctx, w: VecLane, mask, accum, desc, op.is_uniform(), |o: T, mk, ac| {
            let (u, v) = (cast_v::<T>(&u.v)?, cast_v::<T>(&v.v)?);
            ctx.ewise_add_vector(o, mk, ac, LaneOp::new(op), &*u, &*v, desc)
        })
    })
}

/// `GrB_eWiseMult` (vector).
pub fn ewise_mult_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbBinaryOp,
    u: &GrbVector,
    v: &GrbVector,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(op.d3, "output w")?;
        u.domain().expect_castable_to(op.d1, "input u")?;
        v.domain().expect_castable_to(op.d2, "input v")?;
        dispatch!(ctx, w: VecLane, mask, accum, desc, op.is_uniform(), |o: T, mk, ac| {
            let (u, v) = (cast_v::<T>(&u.v)?, cast_v::<T>(&v.v)?);
            ctx.ewise_mult_vector(o, mk, ac, LaneOp::new(op), &*u, &*v, desc)
        })
    })
}

/// `GrB_apply` (matrix).
pub fn apply_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbUnaryOp,
    a: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(op.d2, "output C")?;
        a.domain().expect_castable_to(op.d1, "input A")?;
        dispatch!(ctx, c: MatLane, mask, accum, desc, op.d1 == op.d2, |o: T, mk, ac| {
            let f = LaneUnary::new(op);
            ctx.apply_matrix(o, mk, ac, f, &*cast_m::<T>(&a.m)?, desc)
        })
    })
}

/// `GrB_apply` (vector).
pub fn apply_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbUnaryOp,
    u: &GrbVector,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(op.d2, "output w")?;
        u.domain().expect_castable_to(op.d1, "input u")?;
        dispatch!(ctx, w: VecLane, mask, accum, desc, op.d1 == op.d2, |o: T, mk, ac| {
            let f = LaneUnary::new(op);
            ctx.apply_vector(o, mk, ac, f, &*cast_v::<T>(&u.v)?, desc)
        })
    })
}

/// `GrB_reduce` (matrix → vector): Fig. 3 line 78.
pub fn reduce_rows(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    monoid: &GrbMonoid,
    a: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(monoid.domain(), "output w")?;
        a.expect_domain(monoid.domain(), "input A")?;
        in_lane!(w: VecLane, mask, accum, |o: T, mk, ac| {
            let m = monoid.lane::<T>();
            ctx.reduce_rows(o, mk, ac, m, &*cast_m::<T>(&a.m)?, desc)
        })
    })
}

/// `GrB_reduce` (matrix → scalar).
pub fn reduce_matrix_scalar(monoid: &GrbMonoid, a: &GrbMatrix) -> Result<Value> {
    recorded(|ctx| {
        a.expect_domain(monoid.domain(), "input A")?;
        lane!(MatLane, &a.m, x: T => {
            Ok(ctx.reduce_matrix_to_scalar(monoid.lane::<T>(), x)?.to_value())
        })
    })
}

/// `GrB_reduce` (vector → scalar).
pub fn reduce_vector_scalar(monoid: &GrbMonoid, u: &GrbVector) -> Result<Value> {
    recorded(|ctx| {
        u.expect_domain(monoid.domain(), "input u")?;
        lane!(VecLane, &u.v, x: T => {
            Ok(ctx.reduce_vector_to_scalar(monoid.lane::<T>(), x)?.to_value())
        })
    })
}

/// `GrB_transpose`.
pub fn transpose(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    a: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(a.domain(), "output C")?;
        in_lane!(c: MatLane, mask, accum, |o: T, mk, ac| {
            ctx.transpose(o, mk, ac, &*cast_m::<T>(&a.m)?, desc)
        })
    })
}

/// `GrB_extract` (matrix): Fig. 3 line 33.
pub fn extract_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    a: &GrbMatrix,
    rows: IndexSelection<'_>,
    cols: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(a.domain(), "output C")?;
        in_lane!(c: MatLane, mask, accum, |o: T, mk, ac| {
            let a = cast_m::<T>(&a.m)?;
            ctx.extract_matrix(o, mk, ac, &*a, rows, cols, desc)
        })
    })
}

/// `GrB_select` (matrix): keep stored elements passing the selector.
pub fn select_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbSelectOp,
    a: &GrbMatrix,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(a.domain(), "output C")?;
        op.check_input_domain(a.domain())?;
        in_lane!(c: MatLane, mask, accum, |o: T, mk, ac| {
            let f = op.lane::<T>();
            ctx.select_matrix(o, mk, ac, f, &*cast_m::<T>(&a.m)?, desc)
        })
    })
}

/// `GrB_select` (vector).
pub fn select_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    op: &GrbSelectOp,
    u: &GrbVector,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(u.domain(), "output w")?;
        op.check_input_domain(u.domain())?;
        in_lane!(w: VecLane, mask, accum, |o: T, mk, ac| {
            let f = op.lane::<T>();
            ctx.select_vector(o, mk, ac, f, &*cast_v::<T>(&u.v)?, desc)
        })
    })
}

/// `GrB_extract` (vector): `w<mask> ⊙= u(indices)`.
pub fn extract_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    u: &GrbVector,
    indices: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(u.domain(), "output w")?;
        in_lane!(w: VecLane, mask, accum, |o: T, mk, ac| {
            ctx.extract_vector(o, mk, ac, &*cast_v::<T>(&u.v)?, indices, desc)
        })
    })
}

/// `GrB_Col_extract`: `w<mask> ⊙= A(rows, j)`.
pub fn extract_col(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    a: &GrbMatrix,
    rows: IndexSelection<'_>,
    j: Index,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(a.domain(), "output w")?;
        in_lane!(w: VecLane, mask, accum, |o: T, mk, ac| {
            ctx.extract_col(o, mk, ac, &*cast_m::<T>(&a.m)?, rows, j, desc)
        })
    })
}

/// `C<Mask>(rows, cols) ⊙= A` with `A` cast into `C`'s lane.
#[allow(clippy::too_many_arguments)]
fn assign_m(
    ctx: &Context,
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    a: &MatLane,
    rows: IndexSelection<'_>,
    cols: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    in_lane!(c: MatLane, mask, accum, |o: T, mk, ac| {
        ctx.assign_matrix(o, mk, ac, &*cast_m::<T>(a)?, rows, cols, desc)
    })
}

/// `w<mask>(indices) ⊙= u` with `u` cast into `w`'s lane.
fn assign_v(
    ctx: &Context,
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    u: &VecLane,
    indices: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    in_lane!(w: VecLane, mask, accum, |o: T, mk, ac| {
        ctx.assign_vector(o, mk, ac, &*cast_v::<T>(u)?, indices, desc)
    })
}

/// `GrB_assign` (matrix): `C<Mask>(rows, cols) ⊙= A`.
pub fn assign_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    a: &GrbMatrix,
    rows: IndexSelection<'_>,
    cols: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        c.expect_domain(a.domain(), "output C")?;
        assign_m(ctx, c, mask, accum, &a.m, rows, cols, desc)
    })
}

/// `GrB_assign` (vector): `w<mask>(indices) ⊙= u`.
pub fn assign_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    u: &GrbVector,
    indices: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        w.expect_domain(u.domain(), "output w")?;
        assign_v(ctx, w, mask, accum, &u.v, indices, desc)
    })
}

/// `GrB_assign` (matrix, scalar fill): Fig. 3 line 61. No output-domain
/// check — the scalar casts to the output's domain instead.
pub fn assign_scalar_matrix(
    c: &GrbMatrix,
    mask: Option<&GrbMatrix>,
    accum: Option<&GrbBinaryOp>,
    value: Value,
    rows: IndexSelection<'_>,
    cols: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        let value = value.try_cast_to(c.domain())?;
        in_lane!(c: MatLane, mask, accum, |o: T, mk, ac| {
            let x = T::cast_from(&value);
            ctx.assign_scalar_matrix(o, mk, ac, x, rows, cols, desc)
        })
    })
}

/// `GrB_assign` (vector, scalar fill): Fig. 3 line 77.
pub fn assign_scalar_vector(
    w: &GrbVector,
    mask: Option<&GrbVector>,
    accum: Option<&GrbBinaryOp>,
    value: Value,
    indices: IndexSelection<'_>,
    desc: &Descriptor,
) -> Result<()> {
    recorded(|ctx| {
        let value = value.try_cast_to(w.domain())?;
        in_lane!(w: VecLane, mask, accum, |o: T, mk, ac| {
            let x = T::cast_from(&value);
            ctx.assign_scalar_vector(o, mk, ac, x, indices, desc)
        })
    })
}

/// `GrB_Matrix_removeElement(C, i, j)`. Removing an element that is not
/// stored is a spec-conformant no-op; an out-of-bounds index is an API
/// error, recorded for `GrB_error()` like every other wrapper's.
pub fn matrix_remove_element(c: &GrbMatrix, i: usize, j: usize) -> Result<()> {
    recorded(|_ctx| c.remove(i, j))
}

/// `GrB_Vector_removeElement(w, i)`; see [`matrix_remove_element`].
pub fn vector_remove_element(w: &GrbVector, i: usize) -> Result<()> {
    recorded(|_ctx| w.remove(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::with_session;
    use crate::value::GrbType;
    use graphblas_core::error::Error;
    use graphblas_core::exec::Mode;
    use graphblas_core::index::ALL;

    fn int_matrix(n: usize, t: &[(usize, usize, i32)]) -> GrbMatrix {
        let m = GrbMatrix::new(GrbType::Int32, n, n).unwrap();
        let rows: Vec<usize> = t.iter().map(|x| x.0).collect();
        let cols: Vec<usize> = t.iter().map(|x| x.1).collect();
        let vals: Vec<Value> = t.iter().map(|x| Value::Int32(x.2)).collect();
        m.build(
            &rows,
            &cols,
            &vals,
            &GrbBinaryOp::plus(GrbType::Int32).unwrap(),
        )
        .unwrap();
        m
    }

    fn int32_semiring() -> GrbSemiring {
        let add =
            GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0)).unwrap();
        GrbSemiring::new(add, GrbBinaryOp::times(GrbType::Int32).unwrap()).unwrap()
    }

    #[test]
    fn mxm_through_the_facade() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(2, &[(0, 0, 1), (0, 1, 2), (1, 1, 3)]);
            let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
            mxm(
                &c,
                None,
                None,
                &int32_semiring(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(c.get(0, 1).unwrap(), Some(Value::Int32(8)));
            assert_eq!(c.get(1, 1).unwrap(), Some(Value::Int32(9)));
        })
        .unwrap();
    }

    #[test]
    fn output_domain_mismatch_is_runtime_error() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(2, &[(0, 0, 1)]);
            let c = GrbMatrix::new(GrbType::Fp32, 2, 2).unwrap();
            let e = mxm(
                &c,
                None,
                None,
                &int32_semiring(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap_err();
            assert!(matches!(e, Error::DomainMismatch(_)));
        })
        .unwrap();
    }

    #[test]
    fn operand_domains_cast_implicitly() {
        with_session(Mode::Blocking, || {
            // fp64 operand into an int32 semiring: C casts operands
            let a = GrbMatrix::new(GrbType::Fp64, 1, 1).unwrap();
            a.set(0, 0, Value::Fp64(2.9)).unwrap();
            let c = GrbMatrix::new(GrbType::Int32, 1, 1).unwrap();
            mxm(
                &c,
                None,
                None,
                &int32_semiring(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            // 2.9 casts to 2; 2*2 = 4
            assert_eq!(c.get(0, 0).unwrap(), Some(Value::Int32(4)));
        })
        .unwrap();
    }

    #[test]
    fn accumulator_domain_rule() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(1, &[(0, 0, 2)]);
            let c = GrbMatrix::new(GrbType::Int32, 1, 1).unwrap();
            c.set(0, 0, Value::Int32(100)).unwrap();
            // fp32 accumulator cannot accumulate into int32 output
            let bad = GrbBinaryOp::plus(GrbType::Fp32).unwrap();
            let e = mxm(
                &c,
                None,
                Some(&bad),
                &int32_semiring(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap_err();
            assert!(matches!(e, Error::DomainMismatch(_)));
            let good = GrbBinaryOp::plus(GrbType::Int32).unwrap();
            mxm(
                &c,
                None,
                Some(&good),
                &int32_semiring(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(c.get(0, 0).unwrap(), Some(Value::Int32(104)));
        })
        .unwrap();
    }

    #[test]
    fn masked_ops_and_descriptor() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(2, &[(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
            let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
            let mask = int_matrix(2, &[(0, 1, 1)]);
            mxm(
                &c,
                Some(&mask),
                None,
                &int32_semiring(),
                &a,
                &a,
                &Descriptor::default().replace(),
            )
            .unwrap();
            assert_eq!(c.nvals().unwrap(), 1);
            assert_eq!(c.get(0, 1).unwrap(), Some(Value::Int32(10)));
        })
        .unwrap();
    }

    #[test]
    fn apply_and_reduce() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(2, &[(0, 0, 4), (1, 1, 9)]);
            // identity into bool = the Fig. 3 cast
            let b = GrbMatrix::new(GrbType::Bool, 2, 2).unwrap();
            apply_matrix(
                &b,
                None,
                None,
                &GrbUnaryOp::identity(GrbType::Bool),
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(b.get(1, 1).unwrap(), Some(Value::Bool(true)));

            let monoid =
                GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0))
                    .unwrap();
            assert_eq!(reduce_matrix_scalar(&monoid, &a).unwrap(), Value::Int32(13));
            let w = GrbVector::new(GrbType::Int32, 2).unwrap();
            reduce_rows(&w, None, None, &monoid, &a, &Descriptor::default()).unwrap();
            assert_eq!(w.get(0).unwrap(), Some(Value::Int32(4)));
        })
        .unwrap();
    }

    #[test]
    fn scalar_assign_fill() {
        with_session(Mode::Blocking, || {
            let c = GrbMatrix::new(GrbType::Fp32, 2, 3).unwrap();
            assign_scalar_matrix(
                &c,
                None,
                None,
                Value::Fp32(1.0),
                ALL,
                ALL,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(c.nvals().unwrap(), 6);
            let w = GrbVector::new(GrbType::Fp32, 4).unwrap();
            assign_scalar_vector(
                &w,
                None,
                None,
                Value::Fp32(-2.0),
                ALL,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(w.get(3).unwrap(), Some(Value::Fp32(-2.0)));
        })
        .unwrap();
    }

    #[test]
    fn extract_and_assign_vector_through_facade() {
        with_session(Mode::Blocking, || {
            let u = GrbVector::new(GrbType::Int32, 4).unwrap();
            for (i, v) in [(0, 10), (2, 20), (3, 30)] {
                u.set(i, Value::Int32(v)).unwrap();
            }
            let w = GrbVector::new(GrbType::Int32, 2).unwrap();
            extract_vector(
                &w,
                None,
                None,
                &u,
                IndexSelection::List(&[3, 1]),
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(w.extract_tuples().unwrap(), vec![(0, Value::Int32(30))]);

            let target = GrbVector::new(GrbType::Int32, 4).unwrap();
            assign_vector(
                &target,
                None,
                None,
                &w,
                IndexSelection::List(&[1, 2]),
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(
                target.extract_tuples().unwrap(),
                vec![(1, Value::Int32(30))]
            );
        })
        .unwrap();
    }

    #[test]
    fn assign_matrix_region_through_facade() {
        with_session(Mode::Blocking, || {
            let c = int_matrix(3, &[(0, 0, 1), (2, 2, 9)]);
            let a = GrbMatrix::new(GrbType::Int32, 1, 2).unwrap();
            a.set(0, 0, Value::Int32(7)).unwrap();
            assign_matrix(
                &c,
                None,
                None,
                &a,
                IndexSelection::List(&[1]),
                IndexSelection::List(&[0, 1]),
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(c.get(1, 0).unwrap(), Some(Value::Int32(7)));
            assert_eq!(c.get(0, 0).unwrap(), Some(Value::Int32(1)));
        })
        .unwrap();
    }

    #[test]
    fn extract_col_through_facade() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(3, &[(0, 1, 5), (2, 1, 6)]);
            let w = GrbVector::new(GrbType::Int32, 3).unwrap();
            extract_col(
                &w,
                None,
                None,
                &a,
                graphblas_core::index::ALL,
                1,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(
                w.extract_tuples().unwrap(),
                vec![(0, Value::Int32(5)), (2, Value::Int32(6))]
            );
        })
        .unwrap();
    }

    #[test]
    fn transpose_and_vxm_through_facade() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(2, &[(0, 1, 3)]);
            let t = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
            transpose(&t, None, None, &a, &Descriptor::default()).unwrap();
            assert_eq!(t.get(1, 0).unwrap(), Some(Value::Int32(3)));

            let u = GrbVector::new(GrbType::Int32, 2).unwrap();
            u.set(0, Value::Int32(2)).unwrap();
            let w = GrbVector::new(GrbType::Int32, 2).unwrap();
            vxm(
                &w,
                None,
                None,
                &int32_semiring(),
                &u,
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(w.extract_tuples().unwrap(), vec![(1, Value::Int32(6))]);
            let w2 = GrbVector::new(GrbType::Int32, 2).unwrap();
            mxv(
                &w2,
                None,
                None,
                &int32_semiring(),
                &t,
                &u,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(w2.extract_tuples().unwrap(), w.extract_tuples().unwrap());
        })
        .unwrap();
    }

    #[test]
    fn ewise_vector_variants_through_facade() {
        with_session(Mode::Blocking, || {
            let u = GrbVector::new(GrbType::Fp64, 3).unwrap();
            let v = GrbVector::new(GrbType::Fp64, 3).unwrap();
            u.set(0, Value::Fp64(1.0)).unwrap();
            u.set(1, Value::Fp64(2.0)).unwrap();
            v.set(1, Value::Fp64(10.0)).unwrap();
            v.set(2, Value::Fp64(20.0)).unwrap();
            let s = GrbVector::new(GrbType::Fp64, 3).unwrap();
            ewise_add_vector(
                &s,
                None,
                None,
                &GrbBinaryOp::plus(GrbType::Fp64).unwrap(),
                &u,
                &v,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(s.nvals().unwrap(), 3);
            let p = GrbVector::new(GrbType::Fp64, 3).unwrap();
            ewise_mult_vector(
                &p,
                None,
                None,
                &GrbBinaryOp::times(GrbType::Fp64).unwrap(),
                &u,
                &v,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(p.extract_tuples().unwrap(), vec![(1, Value::Fp64(20.0))]);
        })
        .unwrap();
    }

    #[test]
    fn remove_element_through_facade() {
        with_session(Mode::Blocking, || {
            let m = int_matrix(2, &[(0, 0, 1), (1, 1, 2)]);
            matrix_remove_element(&m, 0, 0).unwrap();
            // remove of an absent element: spec-conformant no-op
            matrix_remove_element(&m, 0, 1).unwrap();
            assert_eq!(m.nvals().unwrap(), 1);
            // out-of-bounds is an API error, mirrored into GrB_error()
            let e = matrix_remove_element(&m, 9, 0).unwrap_err();
            assert!(matches!(e, Error::InvalidIndex(_)));
            let detail = crate::context::error().expect("recorded");
            assert!(detail.contains("out of bounds"), "got {detail:?}");

            let u = GrbVector::new(GrbType::Int32, 3).unwrap();
            u.set(1, Value::Int32(7)).unwrap();
            vector_remove_element(&u, 1).unwrap();
            vector_remove_element(&u, 0).unwrap(); // absent: no-op
            assert_eq!(u.nvals().unwrap(), 0);
            assert!(matches!(
                vector_remove_element(&u, 5),
                Err(Error::InvalidIndex(_))
            ));
        })
        .unwrap();
    }

    #[test]
    fn reduce_vector_scalar_through_facade() {
        with_session(Mode::Blocking, || {
            let u = GrbVector::new(GrbType::Int32, 3).unwrap();
            u.set(0, Value::Int32(4)).unwrap();
            u.set(2, Value::Int32(5)).unwrap();
            let monoid =
                GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0))
                    .unwrap();
            assert_eq!(reduce_vector_scalar(&monoid, &u).unwrap(), Value::Int32(9));
        })
        .unwrap();
    }

    #[test]
    fn select_through_facade() {
        with_session(Mode::Blocking, || {
            let a = int_matrix(3, &[(0, 0, 1), (1, 0, 5), (0, 2, 7), (2, 2, 2)]);
            let l = GrbMatrix::new(GrbType::Int32, 3, 3).unwrap();
            select_matrix(
                &l,
                None,
                None,
                &GrbSelectOp::Tril(-1),
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(l.extract_tuples().unwrap(), vec![(1, 0, Value::Int32(5))]);
            let big = GrbMatrix::new(GrbType::Int32, 3, 3).unwrap();
            select_matrix(
                &big,
                None,
                None,
                &GrbSelectOp::ValueGt(Value::Int32(2)),
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(big.nvals().unwrap(), 2);

            let u = GrbVector::new(GrbType::Fp64, 3).unwrap();
            u.set(0, Value::Fp64(0.5)).unwrap();
            u.set(2, Value::Fp64(2.5)).unwrap();
            let w = GrbVector::new(GrbType::Fp64, 3).unwrap();
            select_vector(
                &w,
                None,
                None,
                &GrbSelectOp::ValueGe(Value::Fp64(1.0)),
                &u,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(w.extract_tuples().unwrap(), vec![(2, Value::Fp64(2.5))]);
        })
        .unwrap();
    }

    #[test]
    fn ops_require_initialization() {
        // hold the session lock so no other test's session is live
        let _guard = crate::context::session_lock();
        let a = GrbMatrix::new(GrbType::Int32, 1, 1).unwrap();
        let c = GrbMatrix::new(GrbType::Int32, 1, 1).unwrap();
        let e = mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        );
        assert!(matches!(e, Err(Error::UninitializedObject(_))));
    }
}
