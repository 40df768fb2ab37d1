//! Runtime-defined algebra: user-defined types and operators registered
//! at **runtime**, the C API's `GrB_Type_new` / `GrB_UnaryOp_new` /
//! `GrB_BinaryOp_new` surface (paper §III-B; Fig. 3 lines 12/53 build
//! the algebra the same way). The C facade builds `GrB_Monoid_new` and
//! `GrB_Semiring_new` on top, with their domain checks.
//!
//! The typed core stays monomorphized: built-in kernels compile against
//! zero-sized operator structs and never see this module. Runtime-defined
//! algebra instead rides the **erased lane** — a [`UdfValue`] is a
//! type-tagged byte payload (`memcpy`-able, exactly the C contract: the
//! library moves user values around without interpreting them), and a
//! [`UdfBinary`] applies a user closure over borrowed byte slices with
//! the C-style out-parameter shape `f(z, x, y)`. Payloads of up to
//! [`INLINE_BYTES`] bytes (every size the built-in domains and the usual
//! small structs have) live inside the value, and an operator writes its
//! result into a stack buffer of the output size it cached when it was
//! built, so applying ⊗ or ⊕ allocates nothing and takes no lock. Larger
//! types keep one shared heap payload per value. The facade's `Value`
//! wraps a `UdfValue`, so the generic kernels it instantiates over
//! `Value` carry user-defined payloads unchanged.
//!
//! Type identity is nominal and process-global: [`register_type`] hands
//! out a fresh [`UdfTypeId`] per call, and two registrations are distinct
//! domains even with equal names and sizes — exactly the C API, where
//! each `GrB_Type_new` call mints a distinct opaque handle. Registered
//! names back error detail (`GrB_DOMAIN_MISMATCH` names both domains)
//! and the execution trace; they are interned for the process lifetime
//! (bounded by the number of registrations, a handful per program).

use std::sync::{Arc, OnceLock, RwLock};

use crate::error::{Error, Result};
use crate::exec::trace;

// ----- the type registry -----

/// Handle to a registered runtime type (`GrB_Type`). Copyable and
/// hashable; identity is the registration, not the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UdfTypeId(u32);

struct TypeInfo {
    name: &'static str,
    size: usize,
}

/// The built-in domains are pre-registered so mixed signatures (a user
/// operator producing, say, `FP64` from two struct inputs) name their
/// built-in ends with the same machinery.
const BUILTINS: [(&str, usize); 11] = [
    ("GrB_BOOL", 1),
    ("GrB_INT8", 1),
    ("GrB_INT16", 2),
    ("GrB_INT32", 4),
    ("GrB_INT64", 8),
    ("GrB_UINT8", 1),
    ("GrB_UINT16", 2),
    ("GrB_UINT32", 4),
    ("GrB_UINT64", 8),
    ("GrB_FP32", 4),
    ("GrB_FP64", 8),
];

/// Pre-registered ids for the built-in domains, in the order of the C
/// API's predefined types.
pub const TYPE_BOOL: UdfTypeId = UdfTypeId(0);
pub const TYPE_INT8: UdfTypeId = UdfTypeId(1);
pub const TYPE_INT16: UdfTypeId = UdfTypeId(2);
pub const TYPE_INT32: UdfTypeId = UdfTypeId(3);
pub const TYPE_INT64: UdfTypeId = UdfTypeId(4);
pub const TYPE_UINT8: UdfTypeId = UdfTypeId(5);
pub const TYPE_UINT16: UdfTypeId = UdfTypeId(6);
pub const TYPE_UINT32: UdfTypeId = UdfTypeId(7);
pub const TYPE_UINT64: UdfTypeId = UdfTypeId(8);
pub const TYPE_FP32: UdfTypeId = UdfTypeId(9);
pub const TYPE_FP64: UdfTypeId = UdfTypeId(10);

fn registry() -> &'static RwLock<Vec<TypeInfo>> {
    static REGISTRY: OnceLock<RwLock<Vec<TypeInfo>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(
            BUILTINS
                .iter()
                .map(|&(name, size)| TypeInfo { name, size })
                .collect(),
        )
    })
}

/// `GrB_Type_new(&type, sizeof(user_struct))`: register a user-defined
/// type with its byte size. The name appears in `GrB_DOMAIN_MISMATCH`
/// detail and the execution trace.
pub fn register_type(name: &str, size: usize) -> Result<UdfTypeId> {
    if size == 0 {
        return Err(Error::InvalidValue(format!(
            "user-defined type {name:?} must have nonzero size"
        )));
    }
    let mut reg = registry().write().unwrap();
    let id = u32::try_from(reg.len())
        .map_err(|_| Error::InvalidValue("user-defined type registry exhausted".into()))?;
    reg.push(TypeInfo {
        name: intern(name),
        size,
    });
    Ok(UdfTypeId(id))
}

/// Intern a string for the process lifetime (names of registered types
/// and operators; bounded by the number of registrations).
pub fn intern(s: &str) -> &'static str {
    Box::leak(s.to_owned().into_boxed_str())
}

impl UdfTypeId {
    /// Whether this id is one of the pre-registered built-in domains.
    pub fn is_builtin(self) -> bool {
        (self.0 as usize) < BUILTINS.len()
    }

    /// Registered name (the built-ins carry their C names).
    pub fn name(self) -> &'static str {
        registry().read().unwrap()[self.0 as usize].name
    }

    /// Registered byte size.
    pub fn size(self) -> usize {
        registry().read().unwrap()[self.0 as usize].size
    }
}

// ----- values -----

/// Payloads of at most this many bytes are stored inside the
/// [`UdfValue`] itself; larger registered types share one heap payload
/// per value.
pub const INLINE_BYTES: usize = 16;

/// Where a payload lives. Which variant holds it is a function of its
/// length alone, and no comparison looks at it.
#[derive(Clone)]
enum Payload {
    Inline { len: u8, bytes: [u8; INLINE_BYTES] },
    Heap(Arc<[u8]>),
}

/// A value of a runtime-registered domain: a type tag plus an opaque
/// byte payload of exactly the registered size. Payloads of up to
/// [`INLINE_BYTES`] bytes are stored inline, so cloning one is a copy;
/// a larger payload is shared by its clones (values are immutable once
/// constructed, as everywhere in the engine). Equality and order are
/// those of `(type, bytes)`. Satisfies the blanket
/// [`crate::scalar::Scalar`] bound, so every generic kernel accepts
/// `Matrix<UdfValue>` directly.
#[derive(Clone)]
pub struct UdfValue {
    ty: UdfTypeId,
    payload: Payload,
}

impl UdfValue {
    /// Wrap `bytes` as a value of `ty`; the length must equal the
    /// registered size (the C API reads exactly `sizeof(type)` bytes).
    pub fn new(ty: UdfTypeId, bytes: &[u8]) -> Result<Self> {
        if bytes.len() != ty.size() {
            return Err(Error::InvalidValue(format!(
                "value of {} bytes for type {} of size {}",
                bytes.len(),
                ty.name(),
                ty.size()
            )));
        }
        Ok(UdfValue::filled(ty, bytes.len(), |z| {
            z.copy_from_slice(bytes)
        }))
    }

    /// A value of `ty`, whose registered size the caller has already
    /// looked up as `len`, with the payload `fill` writes into zeroes: on
    /// the stack up to [`INLINE_BYTES`], else in one shared allocation.
    #[inline]
    fn filled(ty: UdfTypeId, len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let payload = if len <= INLINE_BYTES {
            let mut bytes = [0u8; INLINE_BYTES];
            fill(&mut bytes[..len]);
            Payload::Inline {
                len: len as u8,
                bytes,
            }
        } else {
            let mut heap: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
            fill(Arc::get_mut(&mut heap).expect("a new payload is unshared"));
            Payload::Heap(heap)
        };
        UdfValue { ty, payload }
    }

    pub fn ty(&self) -> UdfTypeId {
        self.ty
    }

    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.payload {
            Payload::Inline { len, bytes } => &bytes[..*len as usize],
            Payload::Heap(heap) => heap,
        }
    }
}

impl PartialEq for UdfValue {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty && self.bytes() == other.bytes()
    }
}

impl PartialOrd for UdfValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some((self.ty, self.bytes()).cmp(&(other.ty, other.bytes())))
    }
}

impl std::fmt::Debug for UdfValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(0x", self.ty.name())?;
        for b in self.bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

// ----- operators -----

type RawUnaryFn = Arc<dyn Fn(&mut [u8], &[u8]) + Send + Sync>;
type RawBinaryFn = Arc<dyn Fn(&mut [u8], &[u8], &[u8]) + Send + Sync>;

/// Mark the erased lane for the execution trace: the first operator
/// applied since the last drain names it, one `Cell` check per
/// application after that.
fn note(name: &'static str) {
    trace::note(|n| {
        if n.udf.get().is_none() {
            n.udf.set(Some(name));
        }
    });
}

/// `GrB_UnaryOp_new`: a user function `f : D1 → D2` over raw bytes, in
/// the C out-parameter shape `f(z, x)`. The output buffer arrives
/// zeroed at the registered size of `d2`, looked up once at
/// construction.
#[derive(Clone)]
pub struct UdfUnary {
    name: &'static str,
    d1: UdfTypeId,
    d2: UdfTypeId,
    out_len: usize,
    f: RawUnaryFn,
}

impl UdfUnary {
    pub fn new(
        name: &str,
        d1: UdfTypeId,
        d2: UdfTypeId,
        f: impl Fn(&mut [u8], &[u8]) + Send + Sync + 'static,
    ) -> Self {
        UdfUnary {
            name: intern(name),
            d1,
            d2,
            out_len: d2.size(),
            f: Arc::new(f),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
    pub fn d1(&self) -> UdfTypeId {
        self.d1
    }
    pub fn d2(&self) -> UdfTypeId {
        self.d2
    }

    /// Apply over a borrowed payload, giving a value of `d2` (domain
    /// checking is the caller's; the dispatch layer has already verified
    /// the operand domains).
    #[inline]
    pub fn apply_bytes(&self, x: &[u8]) -> UdfValue {
        note(self.name);
        UdfValue::filled(self.d2, self.out_len, |z| (self.f)(z, x))
    }
}

impl std::fmt::Debug for UdfUnary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UdfUnary({}: {} -> {})",
            self.name,
            self.d1.name(),
            self.d2.name()
        )
    }
}

/// `GrB_BinaryOp_new`: a user function `⊙ : D1 × D2 → D3` over raw
/// bytes, in the C out-parameter shape `f(z, x, y)`; like [`UdfUnary`],
/// it caches the size of `d3` when it is built.
#[derive(Clone)]
pub struct UdfBinary {
    name: &'static str,
    d1: UdfTypeId,
    d2: UdfTypeId,
    d3: UdfTypeId,
    out_len: usize,
    f: RawBinaryFn,
}

impl UdfBinary {
    pub fn new(
        name: &str,
        d1: UdfTypeId,
        d2: UdfTypeId,
        d3: UdfTypeId,
        f: impl Fn(&mut [u8], &[u8], &[u8]) + Send + Sync + 'static,
    ) -> Self {
        UdfBinary {
            name: intern(name),
            d1,
            d2,
            d3,
            out_len: d3.size(),
            f: Arc::new(f),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
    pub fn d1(&self) -> UdfTypeId {
        self.d1
    }
    pub fn d2(&self) -> UdfTypeId {
        self.d2
    }
    pub fn d3(&self) -> UdfTypeId {
        self.d3
    }

    /// Apply over borrowed payloads, giving a value of `d3`.
    #[inline]
    pub fn apply_bytes(&self, x: &[u8], y: &[u8]) -> UdfValue {
        note(self.name);
        UdfValue::filled(self.d3, self.out_len, |z| (self.f)(z, x, y))
    }
}

impl std::fmt::Debug for UdfBinary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UdfBinary({}: {} x {} -> {})",
            self.name,
            self.d1.name(),
            self.d2.name(),
            self.d3.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::take_notes;

    fn i64_bytes(v: i64) -> [u8; 8] {
        v.to_ne_bytes()
    }

    fn wrapped_i64_type() -> UdfTypeId {
        register_type("test_wrapped_i64", 8).unwrap()
    }

    fn plus_op(ty: UdfTypeId) -> UdfBinary {
        UdfBinary::new("test_plus", ty, ty, ty, |z, x, y| {
            let a = i64::from_ne_bytes(x.try_into().unwrap());
            let b = i64::from_ne_bytes(y.try_into().unwrap());
            z.copy_from_slice(&a.wrapping_add(b).to_ne_bytes());
        })
    }

    #[test]
    fn builtin_domains_are_preregistered() {
        assert!(TYPE_FP64.is_builtin());
        assert_eq!(TYPE_FP64.name(), "GrB_FP64");
        assert_eq!(TYPE_FP64.size(), 8);
        assert_eq!(TYPE_BOOL.size(), 1);
    }

    #[test]
    fn registration_is_nominal() {
        let a = register_type("test_same_name", 4).unwrap();
        let b = register_type("test_same_name", 4).unwrap();
        assert_ne!(a, b, "each registration is a distinct domain");
        assert!(!a.is_builtin());
        assert_eq!(a.name(), "test_same_name");
        assert_eq!(a.size(), 4);
    }

    #[test]
    fn zero_size_rejected() {
        assert!(register_type("test_empty", 0).is_err());
    }

    #[test]
    fn value_length_checked() {
        let ty = wrapped_i64_type();
        assert!(UdfValue::new(ty, &[0; 3]).is_err());
        let v = UdfValue::new(ty, &i64_bytes(42)).unwrap();
        assert_eq!(v.ty(), ty);
        assert_eq!(v.bytes(), &i64_bytes(42));
        assert_eq!(v.clone(), v);
    }

    #[test]
    fn payload_storage_follows_the_size() {
        let narrow = register_type("test_narrow", INLINE_BYTES).unwrap();
        let v = UdfValue::new(narrow, &[7; INLINE_BYTES]).unwrap();
        assert!(matches!(v.payload, Payload::Inline { .. }));
        let wide = register_type("test_wide", INLINE_BYTES + 8).unwrap();
        let bytes: Vec<u8> = (0..wide.size() as u8).collect();
        let v = UdfValue::new(wide, &bytes).unwrap();
        assert!(matches!(v.payload, Payload::Heap(_)));
        let rev = UdfBinary::new("test_wide_rev", wide, wide, wide, |z, x, _| {
            z.copy_from_slice(x);
            z.reverse();
        });
        let z = rev.apply_bytes(v.bytes(), v.bytes());
        assert!(matches!(z.payload, Payload::Heap(_)));
        assert_eq!(rev.apply_bytes(z.bytes(), z.bytes()), v);
        assert!(z > v, "ordered by bytes");
    }

    #[test]
    fn binary_applies_user_function() {
        let ty = wrapped_i64_type();
        let op = plus_op(ty);
        let x = UdfValue::new(ty, &i64_bytes(40)).unwrap();
        let y = UdfValue::new(ty, &i64_bytes(2)).unwrap();
        let z = op.apply_bytes(x.bytes(), y.bytes());
        assert_eq!(z.ty(), ty);
        assert_eq!(z.bytes(), &i64_bytes(42));
    }

    #[test]
    fn apply_notes_the_erased_lane() {
        let ty = wrapped_i64_type();
        take_notes();
        let op = plus_op(ty);
        op.apply_bytes(&i64_bytes(1), &i64_bytes(1));
        assert_eq!(take_notes().udf, Some("test_plus"));
        assert_eq!(take_notes().udf, None, "drained");
    }

    #[test]
    fn unary_over_bytes() {
        let ty = wrapped_i64_type();
        let neg = UdfUnary::new("test_neg", ty, ty, |z, x| {
            let a = i64::from_ne_bytes(x.try_into().unwrap());
            z.copy_from_slice(&a.wrapping_neg().to_ne_bytes());
        });
        let v = UdfValue::new(ty, &i64_bytes(5)).unwrap();
        assert_eq!(neg.apply_bytes(v.bytes()).bytes(), &i64_bytes(-5));
    }
}
