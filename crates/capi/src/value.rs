//! The dynamically-typed scalar [`Value`] and the runtime domain tags
//! ([`GrbType`], Table III's `GrB_Type`).
//!
//! The C API is dynamically typed: a `GrB_Matrix` carries its domain at
//! runtime and mismatches surface as `GrB_DOMAIN_MISMATCH`. Collections
//! of a built-in domain hold that domain's Rust scalar (see
//! [`crate::collections`]); `Value` is the scalar at the API boundary
//! (build, set, get, extract, scalar arguments) and the element of the
//! user-type lane, where runtime-registered user types (`GrB_Type_new`;
//! see [`crate::udf`]) ride the [`Value::Udf`] variant as opaque byte
//! payloads. `Value` carries no arithmetic: an operator evaluated on it
//! dispatches on the tag to the typed implementation in [`crate::ops`].
//!
//! ## Conversion semantics (pinned)
//!
//! Every conversion among built-in domains — here, and in the typed
//! `apply` that casts an operand into an operator's domain — is the
//! core's `CastFrom`, i.e. Rust's `as`, which pins the edge cases C
//! leaves implementation-defined or undefined:
//!
//! * **integer → integer**: modular wrap at the target width, both
//!   directions (`(uint8_t)-1 == 255`) — never through a float, so
//!   64-bit values above 2⁵³ stay exact.
//! * **float → integer**: truncation toward zero; out-of-range values
//!   **saturate** at the target bounds and NaN becomes 0.
//! * **integer → float**: nearest-even rounding (the C conversion).
//! * **anything built-in → bool**: `x != 0`.
//! * **user-defined types**: *no* implicit conversions — a UDT casts
//!   only to itself; anything else is `GrB_DOMAIN_MISMATCH` naming both
//!   domains.

use graphblas_core::algebra::udf::{UdfTypeId, UdfValue};
use graphblas_core::error::{Error, Result};
use graphblas_core::scalar::{AsBool, CastFrom};

/// `GrB_Type`: the identifier of a built-in domain (Table V lists
/// `GrB_BOOL`, `GrB_INT32`, `GrB_FP32`; the full C set is supported) or
/// a runtime-registered user type (`GrB_Type_new`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrbType {
    Bool,
    Int8,
    Int16,
    Int32,
    Int64,
    Uint8,
    Uint16,
    Uint32,
    Uint64,
    Fp32,
    Fp64,
    /// A user-defined type registered through `grb_type_new`.
    Udf(UdfTypeId),
}

impl GrbType {
    /// The C spelling (`GrB_INT32`, …); user-defined types report their
    /// registered name.
    pub fn c_name(&self) -> &'static str {
        match self {
            GrbType::Bool => "GrB_BOOL",
            GrbType::Int8 => "GrB_INT8",
            GrbType::Int16 => "GrB_INT16",
            GrbType::Int32 => "GrB_INT32",
            GrbType::Int64 => "GrB_INT64",
            GrbType::Uint8 => "GrB_UINT8",
            GrbType::Uint16 => "GrB_UINT16",
            GrbType::Uint32 => "GrB_UINT32",
            GrbType::Uint64 => "GrB_UINT64",
            GrbType::Fp32 => "GrB_FP32",
            GrbType::Fp64 => "GrB_FP64",
            GrbType::Udf(id) => id.name(),
        }
    }

    /// `true` for the integer and floating-point domains (the ones the
    /// arithmetic predefined operators exist for).
    pub fn is_numeric(&self) -> bool {
        !matches!(self, GrbType::Bool | GrbType::Udf(_))
    }

    /// `true` for runtime-registered user types.
    pub fn is_udf(&self) -> bool {
        matches!(self, GrbType::Udf(_))
    }

    /// The API-boundary castability rule: built-in domains implicitly
    /// convert among themselves; a user-defined domain converts only to
    /// itself. `GrB_DOMAIN_MISMATCH` names both domains so `GrB_error()`
    /// can report them.
    pub fn expect_castable_to(self, to: GrbType, what: &str) -> Result<()> {
        if self == to || (!self.is_udf() && !to.is_udf()) {
            Ok(())
        } else {
            Err(Error::DomainMismatch(format!(
                "{what} has domain {} but the operation expects {}: \
                 user-defined types cast only to themselves",
                self.c_name(),
                to.c_name()
            )))
        }
    }
}

/// A dynamically-typed scalar: one variant per built-in C domain, plus
/// the erased lane for runtime-registered user types.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Value {
    Bool(bool),
    Int8(i8),
    Int16(i16),
    Int32(i32),
    Int64(i64),
    Uint8(u8),
    Uint16(u16),
    Uint32(u32),
    Uint64(u64),
    Fp32(f32),
    Fp64(f64),
    /// A value of a user-defined type: opaque bytes the library moves
    /// but never interprets (the C contract for `GrB_Type_new` types).
    Udf(UdfValue),
}

macro_rules! from_prim {
    ($($t:ty => $v:ident),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value { Value::$v(x) }
        }
    )*};
}
from_prim!(bool => Bool, i8 => Int8, i16 => Int16, i32 => Int32, i64 => Int64,
           u8 => Uint8, u16 => Uint16, u32 => Uint32, u64 => Uint64,
           f32 => Fp32, f64 => Fp64);

impl From<UdfValue> for Value {
    fn from(v: UdfValue) -> Value {
        Value::Udf(v)
    }
}

impl Value {
    /// The runtime domain tag.
    pub fn type_of(&self) -> GrbType {
        match self {
            Value::Bool(_) => GrbType::Bool,
            Value::Int8(_) => GrbType::Int8,
            Value::Int16(_) => GrbType::Int16,
            Value::Int32(_) => GrbType::Int32,
            Value::Int64(_) => GrbType::Int64,
            Value::Uint8(_) => GrbType::Uint8,
            Value::Uint16(_) => GrbType::Uint16,
            Value::Uint32(_) => GrbType::Uint32,
            Value::Uint64(_) => GrbType::Uint64,
            Value::Fp32(_) => GrbType::Fp32,
            Value::Fp64(_) => GrbType::Fp64,
            Value::Udf(v) => GrbType::Udf(v.ty()),
        }
    }

    /// The default value of a domain (C zero-initialization; a UDT gets
    /// its registered size of zero bytes, exactly `calloc`).
    pub fn zero_of(ty: GrbType) -> Value {
        lane_new!(Value, ty, Default::default(); {
            let GrbType::Udf(id) = ty else { unreachable!() };
            Value::Udf(UdfValue::new(id, &vec![0u8; id.size()]).expect("zero bytes of the registered size"))
        })
    }

    /// The UDT payload, if this is a user-defined value.
    pub fn as_udf(&self) -> Option<&UdfValue> {
        match self {
            Value::Udf(v) => Some(v),
            _ => None,
        }
    }

    /// The C implicit domain conversion (`(T) x`), fallible at the API
    /// boundary: user-defined types reject every cross-domain cast with
    /// `GrB_DOMAIN_MISMATCH` naming both domains.
    pub fn try_cast_to(&self, ty: GrbType) -> Result<Value> {
        if self.type_of() == ty {
            return Ok(self.clone());
        }
        if self.type_of().is_udf() || ty.is_udf() {
            return Err(Error::DomainMismatch(format!(
                "no implicit conversion from {} to {}: user-defined types cast only to themselves",
                self.type_of().c_name(),
                ty.c_name()
            )));
        }
        Ok(lane_new!(Value, ty, CastFrom::cast_from(self); unreachable!("checked above")))
    }

    /// The C implicit domain conversion on the infallible kernel path:
    /// operand domains were verified at the API boundary, so a failure
    /// here is a dispatch bug, not a user error.
    pub fn cast_to(&self, ty: GrbType) -> Value {
        self.try_cast_to(ty)
            .unwrap_or_else(|e| panic!("domain confusion past the API checks: {e} (capi bug)"))
    }
}

/// A built-in payload converts into each built-in domain by the core's
/// `CastFrom`, and wraps into a `Value` unchanged.
macro_rules! value_casts {
    ($($t:ty),*) => {$(
        impl CastFrom<Value> for $t {
            #[inline]
            fn cast_from(v: &Value) -> $t {
                per_domain!(Value, v, x: S => <$t>::cast_from(x), Udf(u) => panic!(
                    "domain confusion past the API checks: {u:?} cast to {} (capi bug)",
                    stringify!($t)
                ))
            }
        }

        impl CastFrom<$t> for Value {
            #[inline]
            fn cast_from(x: &$t) -> Value {
                Value::from(*x)
            }
        }
    )*};
}
value_casts!(bool, i8, i16, i32, i64, u8, u16, u32, u64, f32, f64);

impl CastFrom<Value> for Value {
    #[inline]
    fn cast_from(v: &Value) -> Value {
        v.clone()
    }
}

impl AsBool for Value {
    fn as_bool(&self) -> bool {
        // A UDT value masks by its bytes: any nonzero byte is "present and
        // true" (C has no defined bool conversion for structs; all-zero ≙
        // calloc'd default).
        per_domain!(Value, self, x: S => x.as_bool(), Udf(v) => v.bytes().iter().any(|&b| b != 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_core::algebra::udf;

    #[test]
    fn tags_and_names() {
        assert_eq!(Value::Int32(5).type_of(), GrbType::Int32);
        assert_eq!(GrbType::Fp32.c_name(), "GrB_FP32");
        assert!(GrbType::Int64.is_numeric());
        assert!(!GrbType::Bool.is_numeric());
    }

    #[test]
    fn casting_follows_c() {
        assert_eq!(Value::Fp64(2.9).cast_to(GrbType::Int32), Value::Int32(2));
        assert_eq!(Value::Int32(-1).cast_to(GrbType::Bool), Value::Bool(true));
        assert_eq!(Value::Bool(true).cast_to(GrbType::Fp32), Value::Fp32(1.0));
        assert_eq!(Value::Int32(7).cast_to(GrbType::Int32), Value::Int32(7));
    }

    #[test]
    fn negative_int_to_unsigned_wraps_modularly() {
        // C: (uint8_t)-1 == 255 — the conversion is modular, not
        // saturating, and must not round-trip through a float.
        assert_eq!(Value::Int32(-1).cast_to(GrbType::Uint8), Value::Uint8(255));
        assert_eq!(
            Value::Int64(-1).cast_to(GrbType::Uint64),
            Value::Uint64(u64::MAX)
        );
        assert_eq!(
            Value::Int16(-300).cast_to(GrbType::Uint8),
            Value::Uint8((-300i32 as u8 as i32) as u8) // 212
        );
        assert_eq!(Value::Int32(300).cast_to(GrbType::Int8), Value::Int8(44));
    }

    #[test]
    fn wide_int_casts_do_not_lose_precision() {
        // above 2^53 a through-f64 path would corrupt the low bits
        let big = (1i64 << 62) + 12345;
        assert_eq!(
            Value::Int64(big).cast_to(GrbType::Uint64),
            Value::Uint64(big as u64)
        );
        assert_eq!(
            Value::Uint64(u64::MAX).cast_to(GrbType::Int64),
            Value::Int64(-1)
        );
        assert_eq!(
            Value::Uint64(u64::MAX - 1).cast_to(GrbType::Uint32),
            Value::Uint32(u32::MAX - 1)
        );
    }

    #[test]
    fn float_to_int_truncates_saturates_and_zeroes_nan() {
        assert_eq!(Value::Fp64(-2.9).cast_to(GrbType::Int32), Value::Int32(-2));
        // out of range: saturate (C UB; pinned to Rust `as`)
        assert_eq!(Value::Fp64(1e30).cast_to(GrbType::Int8), Value::Int8(127));
        assert_eq!(Value::Fp64(-1e30).cast_to(GrbType::Uint8), Value::Uint8(0));
        assert_eq!(
            Value::Fp32(f32::NAN).cast_to(GrbType::Int64),
            Value::Int64(0)
        );
        assert_eq!(
            Value::Fp64(f64::INFINITY).cast_to(GrbType::Uint16),
            Value::Uint16(u16::MAX)
        );
    }

    #[test]
    fn int_float_round_trips() {
        for v in [0i64, 1, -1, 127, -128, 1 << 20, -(1 << 20)] {
            let f = Value::Int64(v).cast_to(GrbType::Fp64);
            assert_eq!(f.cast_to(GrbType::Int64), Value::Int64(v), "via {f:?}");
        }
        // bool round trip through every numeric domain
        for ty in [GrbType::Int8, GrbType::Uint32, GrbType::Fp32] {
            assert_eq!(
                Value::Bool(true).cast_to(ty).cast_to(GrbType::Bool),
                Value::Bool(true)
            );
        }
    }

    #[test]
    fn udt_rejects_implicit_casts_naming_both_domains() {
        let ty = udf::register_type("capi_test_pair", 16).unwrap();
        let v = Value::Udf(UdfValue::new(ty, &[0u8; 16]).unwrap());
        let e = v.try_cast_to(GrbType::Fp64).unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        let msg = e.to_string();
        assert!(
            msg.contains("capi_test_pair") && msg.contains("GrB_FP64"),
            "{msg}"
        );
        // and the other direction
        let e = Value::Fp64(1.0).try_cast_to(GrbType::Udf(ty)).unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        // identity cast is fine
        assert_eq!(v.try_cast_to(GrbType::Udf(ty)).unwrap(), v);
    }

    #[test]
    fn udt_tags_and_masking() {
        let ty = udf::register_type("capi_test_tag", 2).unwrap();
        let v = Value::Udf(UdfValue::new(ty, &[0, 3]).unwrap());
        assert_eq!(v.type_of(), GrbType::Udf(ty));
        assert_eq!(v.type_of().c_name(), "capi_test_tag");
        assert!(v.type_of().is_udf());
        assert!(!v.type_of().is_numeric());
        assert!(v.as_bool(), "nonzero byte masks true");
        let z = Value::zero_of(GrbType::Udf(ty));
        assert!(!z.as_bool(), "all-zero bytes mask false");
        assert_eq!(z.as_udf().unwrap().bytes(), &[0, 0]);
    }

    #[test]
    fn as_bool_nonzero_rule() {
        assert!(Value::Int32(-5).as_bool());
        assert!(!Value::Fp64(0.0).as_bool());
        assert!(Value::Bool(true).as_bool());
        assert!(!Value::Uint64(0).as_bool());
    }

    #[test]
    fn zeros() {
        assert_eq!(Value::zero_of(GrbType::Fp32), Value::Fp32(0.0));
        assert_eq!(Value::zero_of(GrbType::Uint64), Value::Uint64(0));
        assert_eq!(Value::zero_of(GrbType::Bool), Value::Bool(false));
    }
}
