//! Runtime algebra registration through the C-API facade: the
//! `GrB_Type_new` / `GrB_UnaryOp_new` / `GrB_BinaryOp_new` /
//! `GrB_Monoid_new` / `GrB_Semiring_new` surface over user functions
//! that work on **raw bytes** (the C contract: the library moves user
//! values around without interpreting them).
//!
//! [`grb_type_new`] registers a domain by name and byte size and hands
//! back a [`GrbTypeHandle`] — the facade's `GrB_Type`. Values of that
//! domain are opaque payloads wrapped in [`Value::Udf`]; the operator
//! constructors here wrap a byte-slice closure (C out-parameter shape
//! `f(z, x, y)`) into the same [`GrbBinaryOp`]/[`GrbUnaryOp`] objects
//! the predefined operators use, so a registered semiring is accepted
//! everywhere a built-in one is — the single dispatch path in
//! [`crate::operations`] never knows the difference.
//!
//! Mixed signatures are allowed: an operator may take user-struct inputs
//! and produce `GrB_FP64`, say. Built-in ends of a signature are bridged
//! through their native-endian byte representation, exactly what the C
//! API's `void*` calling convention hands a user function. Operands lend
//! their bytes — a user-defined value its payload, a built-in a stack
//! array — and a user-defined result is built straight into a
//! [`Value::Udf`].

use graphblas_core::algebra::udf::{self, UdfBinary, UdfTypeId, UdfUnary, UdfValue};
use graphblas_core::error::{Error, Result};

use crate::ops::{GrbBinaryOp, GrbMonoid, GrbSemiring, GrbUnaryOp};
use crate::value::{GrbType, Value};

/// The facade's `GrB_Type` handle for a runtime-registered domain.
/// Copyable; identity is the registration (two `grb_type_new` calls are
/// distinct domains even with equal names and sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GrbTypeHandle {
    id: UdfTypeId,
}

/// `GrB_Type_new(&type, sizeof(user_struct))`: register a user-defined
/// domain. The name appears in `GrB_DOMAIN_MISMATCH` detail
/// (`GrB_error()`) and in the execution trace's erased-lane notes.
pub fn grb_type_new(name: &str, size: usize) -> Result<GrbTypeHandle> {
    Ok(GrbTypeHandle {
        id: udf::register_type(name, size)?,
    })
}

impl GrbTypeHandle {
    /// The domain tag to build collections with
    /// (`GrbMatrix::new(handle.ty(), …)`).
    pub fn ty(&self) -> GrbType {
        GrbType::Udf(self.id)
    }

    /// The core registry id (for direct `graphblas_core` use).
    pub fn id(&self) -> UdfTypeId {
        self.id
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// Registered byte size.
    pub fn size(&self) -> usize {
        self.id.size()
    }

    /// Wrap `bytes` as a [`Value`] of this domain (`GrB_*_setElement`
    /// with a user-defined scalar); the length must equal the registered
    /// size.
    pub fn value(&self, bytes: &[u8]) -> Result<Value> {
        Ok(Value::Udf(UdfValue::new(self.id, bytes)?))
    }

    /// Read a [`Value`] of this domain back as its raw payload
    /// (`GrB_*_extractElement` into a user buffer).
    pub fn read<'a>(&self, v: &'a Value) -> Result<&'a [u8]> {
        match v.as_udf() {
            Some(u) if u.ty() == self.id => Ok(u.bytes()),
            _ => Err(Error::DomainMismatch(format!(
                "value of domain {} read as {}",
                v.type_of().c_name(),
                self.name()
            ))),
        }
    }
}

/// The core registry id for any facade domain — the built-ins are
/// pre-registered in the core, so mixed signatures name their built-in
/// ends with the same machinery.
fn core_id(ty: GrbType) -> UdfTypeId {
    match ty {
        GrbType::Bool => udf::TYPE_BOOL,
        GrbType::Int8 => udf::TYPE_INT8,
        GrbType::Int16 => udf::TYPE_INT16,
        GrbType::Int32 => udf::TYPE_INT32,
        GrbType::Int64 => udf::TYPE_INT64,
        GrbType::Uint8 => udf::TYPE_UINT8,
        GrbType::Uint16 => udf::TYPE_UINT16,
        GrbType::Uint32 => udf::TYPE_UINT32,
        GrbType::Uint64 => udf::TYPE_UINT64,
        GrbType::Fp32 => udf::TYPE_FP32,
        GrbType::Fp64 => udf::TYPE_FP64,
        GrbType::Udf(id) => id,
    }
}

/// Lend a value's raw bytes to `k` as a user function sees them: the
/// opaque payload for user-defined domains, the native-endian
/// representation (a stack array) for built-ins — the C `void*`
/// convention.
#[inline]
fn with_bytes<R>(v: &Value, k: impl FnOnce(&[u8]) -> R) -> R {
    match v {
        Value::Bool(b) => k(&[*b as u8]),
        Value::Int8(x) => k(&x.to_ne_bytes()),
        Value::Int16(x) => k(&x.to_ne_bytes()),
        Value::Int32(x) => k(&x.to_ne_bytes()),
        Value::Int64(x) => k(&x.to_ne_bytes()),
        Value::Uint8(x) => k(&x.to_ne_bytes()),
        Value::Uint16(x) => k(&x.to_ne_bytes()),
        Value::Uint32(x) => k(&x.to_ne_bytes()),
        Value::Uint64(x) => k(&x.to_ne_bytes()),
        Value::Fp32(x) => k(&x.to_ne_bytes()),
        Value::Fp64(x) => k(&x.to_ne_bytes()),
        Value::Udf(u) => k(u.bytes()),
    }
}

/// A user function's result as a [`Value`] of domain `ty`: a user-defined
/// result is already one, a built-in one is decoded from its bytes.
#[inline]
fn result_value(ty: GrbType, z: UdfValue) -> Value {
    match ty {
        GrbType::Udf(_) => Value::Udf(z),
        _ => value_from_bytes(ty, z.bytes()).expect("output buffer has the registered size"),
    }
}

/// Rebuild a [`Value`] of domain `ty` from raw bytes (the user
/// function's out-parameter). Length-checked against the domain size.
fn value_from_bytes(ty: GrbType, b: &[u8]) -> Result<Value> {
    let arr = |n: usize| -> Result<&[u8]> {
        if b.len() == n {
            Ok(b)
        } else {
            Err(Error::InvalidValue(format!(
                "{} bytes for domain {} of size {n}",
                b.len(),
                ty.c_name()
            )))
        }
    };
    Ok(match ty {
        GrbType::Bool => Value::Bool(arr(1)?[0] != 0),
        GrbType::Int8 => Value::Int8(i8::from_ne_bytes(arr(1)?.try_into().unwrap())),
        GrbType::Int16 => Value::Int16(i16::from_ne_bytes(arr(2)?.try_into().unwrap())),
        GrbType::Int32 => Value::Int32(i32::from_ne_bytes(arr(4)?.try_into().unwrap())),
        GrbType::Int64 => Value::Int64(i64::from_ne_bytes(arr(8)?.try_into().unwrap())),
        GrbType::Uint8 => Value::Uint8(u8::from_ne_bytes(arr(1)?.try_into().unwrap())),
        GrbType::Uint16 => Value::Uint16(u16::from_ne_bytes(arr(2)?.try_into().unwrap())),
        GrbType::Uint32 => Value::Uint32(u32::from_ne_bytes(arr(4)?.try_into().unwrap())),
        GrbType::Uint64 => Value::Uint64(u64::from_ne_bytes(arr(8)?.try_into().unwrap())),
        GrbType::Fp32 => Value::Fp32(f32::from_ne_bytes(arr(4)?.try_into().unwrap())),
        GrbType::Fp64 => Value::Fp64(f64::from_ne_bytes(arr(8)?.try_into().unwrap())),
        GrbType::Udf(id) => Value::Udf(UdfValue::new(id, b)?),
    })
}

/// `GrB_BinaryOp_new(&op, f, d3, d1, d2)`: a user function
/// `⊙ : D1 × D2 → D3` over raw bytes in the C out-parameter shape
/// `f(z, x, y)` (`z` arrives zeroed at `d3`'s registered size). The
/// result is an ordinary [`GrbBinaryOp`] usable in monoids, semirings,
/// as an accumulator, or as an eWise operator. Applying it borrows the
/// operands' bytes and allocates nothing for payloads of up to
/// [`udf::INLINE_BYTES`] bytes.
pub fn grb_binary_op_new(
    name: &str,
    d1: GrbType,
    d2: GrbType,
    d3: GrbType,
    f: impl Fn(&mut [u8], &[u8], &[u8]) + Send + Sync + 'static,
) -> GrbBinaryOp {
    let raw = UdfBinary::new(name, core_id(d1), core_id(d2), core_id(d3), f);
    let name = raw.name();
    GrbBinaryOp::new(name, d1, d2, d3, move |x, y| {
        let z = with_bytes(x, |x| with_bytes(y, |y| raw.apply_bytes(x, y)));
        result_value(d3, z)
    })
}

/// `GrB_UnaryOp_new(&op, f, d2, d1)`: a user function `f : D1 → D2`
/// over raw bytes in the C out-parameter shape `f(z, x)`.
pub fn grb_unary_op_new(
    name: &str,
    d1: GrbType,
    d2: GrbType,
    f: impl Fn(&mut [u8], &[u8]) + Send + Sync + 'static,
) -> GrbUnaryOp {
    let raw = UdfUnary::new(name, core_id(d1), core_id(d2), f);
    let name = raw.name();
    GrbUnaryOp::new(name, d1, d2, move |x| {
        result_value(d2, with_bytes(x, |x| raw.apply_bytes(x)))
    })
}

/// `GrB_Monoid_new(&monoid, op, identity)` with the identity given as
/// raw bytes of the operator's domain (the C UDT calling convention).
pub fn grb_monoid_new(op: &GrbBinaryOp, identity: &[u8]) -> Result<GrbMonoid> {
    GrbMonoid::new(op.clone(), value_from_bytes(op.d1, identity)?)
}

/// `GxB_Monoid_terminal_new`: [`grb_monoid_new`] plus an absorbing
/// element — reductions may stop folding once the accumulation reaches
/// it (e.g. `0` for MIN over non-negative weights).
pub fn grb_monoid_terminal_new(
    op: &GrbBinaryOp,
    identity: &[u8],
    terminal: &[u8],
) -> Result<GrbMonoid> {
    grb_monoid_new(op, identity)?.with_terminal(value_from_bytes(op.d1, terminal)?)
}

/// `GrB_Semiring_new(&semiring, add_monoid, mul_op)` — identical to
/// [`GrbSemiring::new`]; provided so the registration surface spells
/// the whole Fig. 3 construction sequence in one vocabulary.
pub fn grb_semiring_new(add: GrbMonoid, mul: GrbBinaryOp) -> Result<GrbSemiring> {
    GrbSemiring::new(add, mul)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::{GrbMatrix, GrbVector};
    use crate::context::with_session;
    use crate::operations;
    use crate::ops::{LaneOp, LaneUnary};
    use graphblas_core::algebra::binary::BinaryOp;
    use graphblas_core::algebra::unary::UnaryOp;
    use graphblas_core::descriptor::Descriptor;
    use graphblas_core::exec::Mode;

    fn b(v: i64) -> [u8; 8] {
        v.to_ne_bytes()
    }

    fn plus(ty: GrbType) -> GrbBinaryOp {
        grb_binary_op_new("udf_plus_i64", ty, ty, ty, |z, x, y| {
            let a = i64::from_ne_bytes(x.try_into().unwrap());
            let c = i64::from_ne_bytes(y.try_into().unwrap());
            z.copy_from_slice(&a.wrapping_add(c).to_ne_bytes());
        })
    }

    #[test]
    fn value_stays_32_bytes() {
        // a 16-byte payload is stored inline without growing the lane's
        // element
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn equal_payloads_compare_equal_whatever_their_storage() {
        // 1 and 16 bytes are stored inline, 17 and 24 on the heap; a value
        // from the registry, its clone, and one an operator computed must
        // agree, and order follows the bytes
        for size in [1usize, 16, 17, 24] {
            let t = grb_type_new("capi_udf_storage", size).unwrap();
            let copy = grb_unary_op_new("udf_copy", t.ty(), t.ty(), |z, x| z.copy_from_slice(x));
            let bytes: Vec<u8> = (1..=size as u8).collect();
            let v = t.value(&bytes).unwrap();
            let computed = LaneUnary::<Value>::new(&copy).apply(&v);
            assert_eq!(t.read(&computed).unwrap(), &bytes[..], "size {size}");
            assert_eq!(computed, v, "size {size}");
            assert_eq!(v.clone(), v, "size {size}");
            let mut larger = bytes.clone();
            larger[size - 1] += 1;
            let w = t.value(&larger).unwrap();
            assert_ne!(w, v, "size {size}");
            assert!(v < w, "size {size}");
        }
    }

    #[test]
    fn handle_round_trip_and_read_checks() {
        let t = grb_type_new("capi_udf_pair", 16).unwrap();
        assert_eq!(t.name(), "capi_udf_pair");
        assert_eq!(t.size(), 16);
        assert_eq!(t.ty().c_name(), "capi_udf_pair");
        let v = t.value(&[7u8; 16]).unwrap();
        assert_eq!(t.read(&v).unwrap(), &[7u8; 16]);
        assert!(t.value(&[0u8; 3]).is_err(), "length-checked");
        // reading a foreign domain names both sides
        let other = grb_type_new("capi_udf_other", 16).unwrap();
        let e = other.read(&v).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("capi_udf_pair") && msg.contains("capi_udf_other"),
            "{msg}"
        );
    }

    #[test]
    fn mixed_signature_bridges_builtin_bytes() {
        // user-struct × user-struct → GrB_FP64: the built-in end rides
        // its native-endian representation
        let t = grb_type_new("capi_udf_vec2", 16).unwrap();
        let dot = grb_binary_op_new("udf_dot2", t.ty(), t.ty(), GrbType::Fp64, |z, x, y| {
            let f =
                |b: &[u8], i: usize| f64::from_ne_bytes(b[i * 8..(i + 1) * 8].try_into().unwrap());
            let d = f(x, 0) * f(y, 0) + f(x, 1) * f(y, 1);
            z.copy_from_slice(&d.to_ne_bytes());
        });
        let enc = |a: f64, c: f64| {
            let mut out = [0u8; 16];
            out[..8].copy_from_slice(&a.to_ne_bytes());
            out[8..].copy_from_slice(&c.to_ne_bytes());
            t.value(&out).unwrap()
        };
        dot.check_domains(t.ty(), t.ty(), GrbType::Fp64).unwrap();
        let got = LaneOp::<Value>::new(&dot).apply(&enc(1.0, 2.0), &enc(3.0, 4.0));
        assert_eq!(got, Value::Fp64(11.0));
    }

    #[test]
    fn registered_semiring_runs_the_dispatch_path() {
        with_session(Mode::Nonblocking, || {
            let t = grb_type_new("capi_udf_wrapped_i64", 8).unwrap();
            let times = grb_binary_op_new("udf_times_i64", t.ty(), t.ty(), t.ty(), |z, x, y| {
                let a = i64::from_ne_bytes(x.try_into().unwrap());
                let c = i64::from_ne_bytes(y.try_into().unwrap());
                z.copy_from_slice(&a.wrapping_mul(c).to_ne_bytes());
            });
            let add = grb_monoid_new(&plus(t.ty()), &b(0)).unwrap();
            let sr = grb_semiring_new(add.clone(), times).unwrap();

            let a = GrbMatrix::new(t.ty(), 2, 2).unwrap();
            a.set(0, 0, t.value(&b(2)).unwrap()).unwrap();
            a.set(0, 1, t.value(&b(3)).unwrap()).unwrap();
            a.set(1, 1, t.value(&b(4)).unwrap()).unwrap();
            let u = GrbVector::new(t.ty(), 2).unwrap();
            u.set(0, t.value(&b(10)).unwrap()).unwrap();
            u.set(1, t.value(&b(100)).unwrap()).unwrap();
            let w = GrbVector::new(t.ty(), 2).unwrap();
            operations::mxv(&w, None, None, &sr, &a, &u, &Descriptor::default()).unwrap();
            assert_eq!(t.read(&w.get(0).unwrap().unwrap()).unwrap(), &b(320));
            assert_eq!(t.read(&w.get(1).unwrap().unwrap()).unwrap(), &b(400));

            // reduce through the registered monoid
            let s = operations::reduce_vector_scalar(&add, &w).unwrap();
            assert_eq!(t.read(&s).unwrap(), &b(720));
        })
        .unwrap();
    }

    #[test]
    fn terminal_monoid_constructs_and_short_circuits_semantically() {
        let t = grb_type_new("capi_udf_min_i64", 8).unwrap();
        let min = grb_binary_op_new("udf_min_i64", t.ty(), t.ty(), t.ty(), |z, x, y| {
            let a = i64::from_ne_bytes(x.try_into().unwrap());
            let c = i64::from_ne_bytes(y.try_into().unwrap());
            z.copy_from_slice(&a.min(c).to_ne_bytes());
        });
        let m = grb_monoid_terminal_new(&min, &b(i64::MAX), &b(0)).unwrap();
        assert_eq!(m.terminal, Some(value_from_bytes(t.ty(), &b(0)).unwrap()));
        use graphblas_core::algebra::monoid::Monoid;
        let dynm = m.lane::<Value>();
        assert!(dynm.is_terminal(&t.value(&b(0)).unwrap()));
        assert!(!dynm.is_terminal(&t.value(&b(5)).unwrap()));
        // wrong-domain terminal is a construction error
        let e = grb_monoid_terminal_new(&min, &b(i64::MAX), &[0u8; 4]).unwrap_err();
        assert!(e.to_string().contains("capi_udf_min_i64"), "{e}");
    }

    #[test]
    fn udt_operands_must_match_the_operator_domains() {
        with_session(Mode::Blocking, || {
            let t = grb_type_new("capi_udf_strict_a", 8).unwrap();
            let other = grb_type_new("capi_udf_strict_b", 8).unwrap();
            let add = grb_monoid_new(&plus(t.ty()), &b(0)).unwrap();
            let sr = grb_semiring_new(add, plus(t.ty())).unwrap();
            // operand of a *different* UDT: DOMAIN_MISMATCH naming both
            let a = GrbMatrix::new(other.ty(), 2, 2).unwrap();
            let u = GrbVector::new(t.ty(), 2).unwrap();
            let w = GrbVector::new(t.ty(), 2).unwrap();
            let e =
                operations::mxv(&w, None, None, &sr, &a, &u, &Descriptor::default()).unwrap_err();
            assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
            let msg = e.to_string();
            assert!(
                msg.contains("capi_udf_strict_a") && msg.contains("capi_udf_strict_b"),
                "{msg}"
            );
        })
        .unwrap();
    }
}
