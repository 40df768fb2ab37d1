//! Runtime-typed opaque collections: `GrB_Matrix` and `GrB_Vector`
//! handles carrying their domain tag. A handle holds one lane: the typed
//! core's `Matrix<T>`/`Vector<T>` over its built-in domain's Rust scalar,
//! or over [`Value`] for a user-defined domain. A built-in collection
//! never stores `Value`s; they exist only at the boundary methods here.

use std::any::Any;
use std::borrow::Cow;

use graphblas_core::error::{Error, Result};
use graphblas_core::index::Index;
use graphblas_core::object::{Matrix, Vector};
use graphblas_core::scalar::CastFrom;
use graphblas_core::storage::{DeltaStats, MatrixSnapshot, VectorSnapshot};

use crate::ops::{Elem, GrbBinaryOp, LaneOp};
use crate::value::{GrbType, Value};

/// One collection per domain: a typed lane for each built-in domain, the
/// `Value` lane for user-defined ones.
macro_rules! lane_enum {
    ($(#[$m:meta])* $E:ident<$C:ident>) => {
        $(#[$m])*
        #[derive(Debug)]
        pub(crate) enum $E {
            Bool($C<bool>),
            Int8($C<i8>),
            Int16($C<i16>),
            Int32($C<i32>),
            Int64($C<i64>),
            Uint8($C<u8>),
            Uint16($C<u16>),
            Uint32($C<u32>),
            Uint64($C<u64>),
            Fp32($C<f32>),
            Fp64($C<f64>),
            Udf($C<Value>),
        }
    };
}
lane_enum!(#[derive(Clone)] MatLane<Matrix>);
lane_enum!(#[derive(Clone)] VecLane<Vector>);
lane_enum!(MatSnapLane<MatrixSnapshot>);
lane_enum!(VecSnapLane<VectorSnapshot>);

/// A boundary value in lane `T`, after the C cast into domain `ty` (a
/// user-defined domain accepts only its own values).
fn into_lane<T: Elem>(v: &Value, ty: GrbType) -> Result<T> {
    if v.type_of() == ty {
        Ok(T::cast_from(v))
    } else {
        Ok(T::cast_from(&v.try_cast_to(ty)?))
    }
}

fn into_lane_all<T: Elem>(vals: &[Value], ty: GrbType) -> Result<Vec<T>> {
    vals.iter().map(|v| into_lane(v, ty)).collect()
}

/// `DOMAIN_MISMATCH` unless `ty == want`, naming both for `GrB_error()`.
fn expect_domain(ty: GrbType, want: GrbType, role: &str) -> Result<()> {
    if ty != want {
        return Err(Error::DomainMismatch(format!(
            "{role} has domain {} but {} is required",
            ty.c_name(),
            want.c_name()
        )));
    }
    Ok(())
}

/// Lane `m` as a `Matrix<T>`: borrowed when it is one, else a new matrix
/// holding its entries cast by value (the C API's implicit operand cast).
pub(crate) fn cast_m<T: Elem>(m: &MatLane) -> Result<Cow<'_, Matrix<T>>> {
    lane!(MatLane, m, x: S => match (x as &dyn Any).downcast_ref::<Matrix<T>>() {
        Some(same) => Ok(Cow::Borrowed(same)),
        None => {
            let cast = |(i, j, v): (Index, Index, S)| (i, j, <T as CastFrom<S>>::cast_from(&v));
            let tuples: Vec<_> = x.extract_tuples()?.into_iter().map(cast).collect();
            Ok(Cow::Owned(Matrix::from_tuples(x.nrows(), x.ncols(), &tuples)?))
        }
    })
}

/// [`cast_m`] for vectors.
pub(crate) fn cast_v<T: Elem>(v: &VecLane) -> Result<Cow<'_, Vector<T>>> {
    lane!(VecLane, v, x: S => match (x as &dyn Any).downcast_ref::<Vector<T>>() {
        Some(same) => Ok(Cow::Borrowed(same)),
        None => {
            let cast = |(i, v): (Index, S)| (i, <T as CastFrom<S>>::cast_from(&v));
            let tuples: Vec<_> = x.extract_tuples()?.into_iter().map(cast).collect();
            Ok(Cow::Owned(Vector::from_tuples(x.size(), &tuples)?))
        }
    })
}

/// A dynamically-typed `GrB_Matrix` handle.
#[derive(Debug, Clone)]
pub struct GrbMatrix {
    ty: GrbType,
    pub(crate) m: MatLane,
}

impl GrbMatrix {
    /// `GrB_Matrix_new(&A, type, nrows, ncols)`.
    pub fn new(ty: GrbType, nrows: Index, ncols: Index) -> Result<Self> {
        let m = lane_new!(MatLane, ty, Matrix::new(nrows, ncols)?;
            MatLane::Udf(Matrix::new(nrows, ncols)?));
        Ok(GrbMatrix { ty, m })
    }

    pub fn domain(&self) -> GrbType {
        self.ty
    }

    /// `GrB_Matrix_nrows`.
    pub fn nrows(&self) -> Index {
        lane!(MatLane, &self.m, m: T => m.nrows())
    }

    /// `GrB_Matrix_ncols`.
    pub fn ncols(&self) -> Index {
        lane!(MatLane, &self.m, m: T => m.ncols())
    }

    /// `GrB_Matrix_nvals` (forces completion).
    pub fn nvals(&self) -> Result<usize> {
        lane!(MatLane, &self.m, m: T => m.nvals())
    }

    /// `GrB_Matrix_build(C, rows, cols, vals, n, dup)`. Values are cast
    /// into the matrix domain (the C API's typed build variants);
    /// duplicates combined with `dup`, which must be an operator over
    /// this matrix's domain.
    pub fn build(
        &self,
        rows: &[Index],
        cols: &[Index],
        vals: &[Value],
        dup: &GrbBinaryOp,
    ) -> Result<()> {
        dup.check_domains(self.ty, self.ty, self.ty)?;
        lane!(MatLane, &self.m, m: T => {
            m.build(rows, cols, &into_lane_all::<T>(vals, self.ty)?, &LaneOp::new(dup))
        })
    }

    /// `GrB_Matrix_setElement` (value cast into the matrix domain; a
    /// user-defined domain accepts only its own values).
    pub fn set(&self, i: Index, j: Index, v: Value) -> Result<()> {
        lane!(MatLane, &self.m, m: T => m.set(i, j, into_lane::<T>(&v, self.ty)?))
    }

    /// `GrB_Matrix_removeElement`. Removing an element that is not
    /// stored is a no-op, per the spec.
    pub fn remove(&self, i: Index, j: Index) -> Result<()> {
        lane!(MatLane, &self.m, m: T => m.remove(i, j))
    }

    /// `GrB_Matrix_extractElement`: `Ok(None)` = `GrB_NO_VALUE`.
    pub fn get(&self, i: Index, j: Index) -> Result<Option<Value>> {
        lane!(MatLane, &self.m, m: T => Ok(m.get(i, j)?.map(|x| x.to_value())))
    }

    /// `GrB_Matrix_extractTuples` (forces completion).
    pub fn extract_tuples(&self) -> Result<Vec<(Index, Index, Value)>> {
        lane!(MatLane, &self.m, m: T => m.extract_tuples_with(T::to_value))
    }

    /// `GrB_Matrix_clear`.
    pub fn clear(&self) {
        lane!(MatLane, &self.m, m: T => m.clear())
    }

    /// `GrB_Matrix_dup`.
    pub fn dup(&self) -> GrbMatrix {
        GrbMatrix {
            ty: self.ty,
            m: lane_map!(MatLane => MatLane, &self.m, m => m.dup()),
        }
    }

    /// Force completion of this object (`GrB_Matrix_wait`).
    pub fn wait(&self) -> Result<()> {
        lane!(MatLane, &self.m, m: T => m.wait())
    }

    /// `GxB_Matrix_snapshot`-style extension: an O(1) immutable read
    /// view at the current delta epoch. Reads against it never block,
    /// or are blocked by, concurrent `setElement`/`removeElement`
    /// traffic on this handle.
    pub fn snapshot(&self) -> GrbMatrixSnapshot {
        GrbMatrixSnapshot {
            ty: self.ty,
            s: lane_map!(MatLane => MatSnapLane, &self.m, m => m.snapshot()),
        }
    }

    /// `GxB`-style read-epoch probe: the delta epoch a snapshot taken
    /// now would pin (monotone over the object's lifetime).
    pub fn read_epoch(&self) -> u64 {
        self.delta_stats().epoch
    }

    /// Pending-update observability: buffered entries, sealed runs, and
    /// the current epoch.
    pub fn delta_stats(&self) -> DeltaStats {
        lane!(MatLane, &self.m, m: T => m.delta_stats())
    }

    /// Check this matrix's domain against an expected one
    /// (`GrB_DOMAIN_MISMATCH` naming both domains, for `GrB_error()`).
    pub(crate) fn expect_domain(&self, ty: GrbType, role: &str) -> Result<()> {
        expect_domain(self.ty, ty, role)
    }
}

/// A dynamically-typed `GrB_Vector` handle.
#[derive(Debug, Clone)]
pub struct GrbVector {
    ty: GrbType,
    pub(crate) v: VecLane,
}

impl GrbVector {
    /// `GrB_Vector_new(&v, type, n)`.
    pub fn new(ty: GrbType, n: Index) -> Result<Self> {
        let v = lane_new!(VecLane, ty, Vector::new(n)?; VecLane::Udf(Vector::new(n)?));
        Ok(GrbVector { ty, v })
    }

    pub fn domain(&self) -> GrbType {
        self.ty
    }

    /// `GrB_Vector_size`.
    pub fn size(&self) -> Index {
        lane!(VecLane, &self.v, v: T => v.size())
    }

    /// `GrB_Vector_nvals` (forces completion).
    pub fn nvals(&self) -> Result<usize> {
        lane!(VecLane, &self.v, v: T => v.nvals())
    }

    /// `GrB_Vector_build`.
    pub fn build(&self, indices: &[Index], vals: &[Value], dup: &GrbBinaryOp) -> Result<()> {
        dup.check_domains(self.ty, self.ty, self.ty)?;
        lane!(VecLane, &self.v, v: T => {
            v.build(indices, &into_lane_all::<T>(vals, self.ty)?, &LaneOp::new(dup))
        })
    }

    /// `GrB_Vector_setElement` (value cast into the vector domain; a
    /// user-defined domain accepts only its own values).
    pub fn set(&self, i: Index, v: Value) -> Result<()> {
        lane!(VecLane, &self.v, x: T => x.set(i, into_lane::<T>(&v, self.ty)?))
    }

    /// `GrB_Vector_removeElement`. Removing an absent element is a
    /// no-op, per the spec.
    pub fn remove(&self, i: Index) -> Result<()> {
        lane!(VecLane, &self.v, v: T => v.remove(i))
    }

    /// `GrB_Vector_extractElement`.
    pub fn get(&self, i: Index) -> Result<Option<Value>> {
        lane!(VecLane, &self.v, v: T => Ok(v.get(i)?.map(|x| x.to_value())))
    }

    /// `GrB_Vector_extractTuples`.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, Value)>> {
        lane!(VecLane, &self.v, v: T => v.extract_tuples_with(T::to_value))
    }

    /// `GrB_Vector_clear`.
    pub fn clear(&self) {
        lane!(VecLane, &self.v, v: T => v.clear())
    }

    /// `GrB_Vector_dup`.
    pub fn dup(&self) -> GrbVector {
        GrbVector {
            ty: self.ty,
            v: lane_map!(VecLane => VecLane, &self.v, v => v.dup()),
        }
    }

    /// Force completion (`GrB_Vector_wait`).
    pub fn wait(&self) -> Result<()> {
        lane!(VecLane, &self.v, v: T => v.wait())
    }

    /// `GxB_Vector_snapshot`-style extension; see
    /// [`GrbMatrix::snapshot`].
    pub fn snapshot(&self) -> GrbVectorSnapshot {
        GrbVectorSnapshot {
            ty: self.ty,
            s: lane_map!(VecLane => VecSnapLane, &self.v, v => v.snapshot()),
        }
    }

    /// `GxB`-style read-epoch probe; see [`GrbMatrix::read_epoch`].
    pub fn read_epoch(&self) -> u64 {
        self.delta_stats().epoch
    }

    /// Pending-update observability; see [`GrbMatrix::delta_stats`].
    pub fn delta_stats(&self) -> DeltaStats {
        lane!(VecLane, &self.v, v: T => v.delta_stats())
    }

    pub(crate) fn expect_domain(&self, ty: GrbType, role: &str) -> Result<()> {
        expect_domain(self.ty, ty, role)
    }
}

/// A dynamically-typed snapshot handle (`GxB`-style extension): the
/// immutable epoch-versioned view returned by [`GrbMatrix::snapshot`].
#[derive(Debug)]
pub struct GrbMatrixSnapshot {
    ty: GrbType,
    s: MatSnapLane,
}

impl GrbMatrixSnapshot {
    pub fn domain(&self) -> GrbType {
        self.ty
    }

    /// The delta epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        lane!(MatSnapLane, &self.s, s: T => s.epoch())
    }

    pub fn nrows(&self) -> Index {
        lane!(MatSnapLane, &self.s, s: T => s.nrows())
    }

    pub fn ncols(&self) -> Index {
        lane!(MatSnapLane, &self.s, s: T => s.ncols())
    }

    /// Stored-element count at the snapshot's epoch.
    pub fn nvals(&self) -> Result<usize> {
        lane!(MatSnapLane, &self.s, s: T => s.nvals())
    }

    /// Point probe at the snapshot's epoch (`Ok(None)` = `GrB_NO_VALUE`).
    pub fn get(&self, i: Index, j: Index) -> Result<Option<Value>> {
        lane!(MatSnapLane, &self.s, s: T => Ok(s.get(i, j)?.map(|x| x.to_value())))
    }

    /// All stored tuples at the snapshot's epoch, row-major.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, Index, Value)>> {
        lane!(MatSnapLane, &self.s, s: T => s.extract_tuples_with(T::to_value))
    }

    /// A fresh [`GrbMatrix`] whose value is this snapshot — usable as an
    /// input to any operation.
    pub fn to_matrix(&self) -> GrbMatrix {
        GrbMatrix {
            ty: self.ty,
            m: lane_map!(MatSnapLane => MatLane, &self.s, s => s.to_matrix()),
        }
    }
}

/// A dynamically-typed vector snapshot handle; see [`GrbMatrixSnapshot`].
#[derive(Debug)]
pub struct GrbVectorSnapshot {
    ty: GrbType,
    s: VecSnapLane,
}

impl GrbVectorSnapshot {
    pub fn domain(&self) -> GrbType {
        self.ty
    }

    /// The delta epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        lane!(VecSnapLane, &self.s, s: T => s.epoch())
    }

    pub fn size(&self) -> Index {
        lane!(VecSnapLane, &self.s, s: T => s.size())
    }

    /// Stored-element count at the snapshot's epoch.
    pub fn nvals(&self) -> Result<usize> {
        lane!(VecSnapLane, &self.s, s: T => s.nvals())
    }

    /// Point probe at the snapshot's epoch.
    pub fn get(&self, i: Index) -> Result<Option<Value>> {
        lane!(VecSnapLane, &self.s, s: T => Ok(s.get(i)?.map(|x| x.to_value())))
    }

    /// All stored tuples at the snapshot's epoch.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, Value)>> {
        lane!(VecSnapLane, &self.s, s: T => s.extract_tuples_with(T::to_value))
    }

    /// A fresh [`GrbVector`] whose value is this snapshot.
    pub fn to_vector(&self) -> GrbVector {
        GrbVector {
            ty: self.ty,
            v: lane_map!(VecSnapLane => VecLane, &self.s, s => s.to_vector()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_lifecycle() {
        let m = GrbMatrix::new(GrbType::Int32, 2, 3).unwrap();
        assert_eq!(m.domain(), GrbType::Int32);
        assert_eq!((m.nrows(), m.ncols()), (2, 3));
        assert_eq!(m.nvals().unwrap(), 0);
        m.set(0, 1, Value::Int32(5)).unwrap();
        // setElement casts, like the C typed variants
        m.set(1, 2, Value::Fp64(2.9)).unwrap();
        assert_eq!(m.get(1, 2).unwrap(), Some(Value::Int32(2)));
        assert_eq!(m.get(0, 0).unwrap(), None); // GrB_NO_VALUE
        m.clear();
        assert_eq!(m.nvals().unwrap(), 0);
    }

    #[test]
    fn build_checks_dup_domain() {
        let m = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let dup_fp = GrbBinaryOp::plus(GrbType::Fp32).unwrap();
        let e = m
            .build(&[0], &[0], &[Value::Int32(1)], &dup_fp)
            .unwrap_err();
        assert!(matches!(e, Error::DomainMismatch(_)));
        let dup = GrbBinaryOp::plus(GrbType::Int32).unwrap();
        m.build(&[0, 0], &[0, 0], &[Value::Int32(1), Value::Int32(2)], &dup)
            .unwrap();
        assert_eq!(m.get(0, 0).unwrap(), Some(Value::Int32(3)));
    }

    #[test]
    fn vector_lifecycle() {
        let v = GrbVector::new(GrbType::Fp32, 4).unwrap();
        v.set(2, Value::Fp32(1.5)).unwrap();
        assert_eq!(v.nvals().unwrap(), 1);
        assert_eq!(v.extract_tuples().unwrap(), vec![(2, Value::Fp32(1.5))]);
        let d = v.dup();
        v.set(0, Value::Fp32(9.0)).unwrap();
        assert_eq!(d.nvals().unwrap(), 1); // dup is a copy
    }

    #[test]
    fn remove_element_and_absent_noop() {
        let m = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        m.set(0, 1, Value::Int32(5)).unwrap();
        m.remove(0, 1).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), None);
        // spec-conformant no-op: removing an element that was never
        // stored succeeds and changes nothing
        m.remove(1, 1).unwrap();
        assert_eq!(m.nvals().unwrap(), 0);
        // out-of-bounds is still an API error
        assert!(matches!(m.remove(5, 0), Err(Error::InvalidIndex(_))));

        let v = GrbVector::new(GrbType::Fp64, 3).unwrap();
        v.set(1, Value::Fp64(1.5)).unwrap();
        v.remove(1).unwrap();
        v.remove(2).unwrap(); // absent: no-op
        assert_eq!(v.nvals().unwrap(), 0);
        assert!(matches!(v.remove(3), Err(Error::InvalidIndex(_))));
    }

    #[test]
    fn snapshot_surface_is_isolated_and_typed() {
        let m = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        m.set(0, 0, Value::Int32(1)).unwrap();
        assert_eq!(m.read_epoch(), 1);
        let snap = m.snapshot();
        assert_eq!(snap.domain(), GrbType::Int32);
        assert_eq!(snap.epoch(), 1);
        m.set(0, 0, Value::Int32(9)).unwrap();
        assert_eq!(snap.get(0, 0).unwrap(), Some(Value::Int32(1)));
        assert_eq!(snap.nvals().unwrap(), 1);
        let frozen = snap.to_matrix();
        assert_eq!(frozen.get(0, 0).unwrap(), Some(Value::Int32(1)));
        assert_eq!(m.get(0, 0).unwrap(), Some(Value::Int32(9)));

        let v = GrbVector::new(GrbType::Fp64, 3).unwrap();
        v.set(1, Value::Fp64(1.5)).unwrap();
        let vs = v.snapshot();
        v.remove(1).unwrap();
        assert_eq!(vs.get(1).unwrap(), Some(Value::Fp64(1.5)));
        assert_eq!(vs.to_vector().nvals().unwrap(), 1);
        assert_eq!(v.nvals().unwrap(), 0);
        assert_eq!(v.delta_stats().pending_len, 0); // read drained
    }

    #[test]
    fn expect_domain_errors() {
        let m = GrbMatrix::new(GrbType::Bool, 1, 1).unwrap();
        assert!(m.expect_domain(GrbType::Bool, "A").is_ok());
        assert!(matches!(
            m.expect_domain(GrbType::Fp64, "A"),
            Err(Error::DomainMismatch(_))
        ));
    }
}
