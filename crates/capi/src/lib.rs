//! # graphblas-capi
//!
//! A dynamically-typed facade over `graphblas-core` that mirrors the
//! *shape* of the GraphBLAS **C** API the paper specifies: opaque
//! handles carrying runtime domain tags ([`GrbMatrix`], [`GrbVector`]),
//! runtime-composed algebraic objects ([`GrbMonoid`], [`GrbSemiring`] —
//! `GrB_Monoid_new` / `GrB_Semiring_new`), `GrB_NULL`-style optional
//! mask/accumulator arguments, the process-global context lifecycle
//! (the [`Config`] builder → [`finalize`]), and the runtime
//! `GrB_DOMAIN_MISMATCH` errors that a statically-typed binding turns
//! into compile errors.
//!
//! Each built-in domain runs in its own typed lane: a handle holds a
//! `Matrix<T>`/`Vector<T>` of the domain's Rust scalar, and an operation
//! matches the output's domain once per call, casts any operand in
//! another built-in domain into the operator's domain by a value map over
//! its entries, and runs the typed core with the predefined operator as
//! an opcode evaluated natively and the accumulator as a run-time
//! `GrB_NULL`-or-operator `Option`: one core instantiation per lane.
//! Only runtime-registered user types ride the tagged-union [`Value`]
//! lane, which is also where a call whose operator spans several domains
//! is computed before its result is cast into the output. `Value`
//! otherwise appears only at the API boundary: build, set, get, extract,
//! and scalars.
//!
//! The crate's integration tests include a transliteration of the
//! paper's Figure 3 `BC_update` against this facade.

/// `match` a per-domain enum (a lane, or [`Value`]): `$body` runs once
/// per built-in arm with `$x` bound to the payload and `$T` naming the
/// domain's Rust scalar; the user-type arm is given separately.
macro_rules! per_domain {
    ($E:ident, $e:expr, $x:ident: $T:ident => $body:expr, Udf($u:pat) => $udf:expr) => {
        per_domain!(@ $E, $e, $x, $T, $body, $u, $udf;
            Bool bool, Int8 i8, Int16 i16, Int32 i32, Int64 i64, Uint8 u8,
            Uint16 u16, Uint32 u32, Uint64 u64, Fp32 f32, Fp64 f64)
    };
    (@ $E:ident, $e:expr, $x:ident, $T:ident, $body:expr, $u:pat, $udf:expr;
     $($V:ident $t:ty),*) => {
        match $e {
            $($E::$V($x) => {
                #[allow(dead_code)]
                type $T = $t;
                $body
            })*
            $E::Udf($u) => $udf,
        }
    };
}

/// [`per_domain!`] over a lane enum, the user-type arm included (`$T` is
/// then [`Value`]).
macro_rules! lane {
    ($E:ident, $e:expr, $x:ident: $T:ident => $body:expr) => {
        per_domain!($E, $e, $x: $T => $body, Udf($x) => {
            #[allow(dead_code)]
            type $T = $crate::value::Value;
            $body
        })
    };
}

/// Map one lane enum onto another arm by arm (`$B::V(body)` for `$A::V(x)`).
macro_rules! lane_map {
    ($A:ident => $B:ident, $e:expr, $x:ident => $body:expr) => {
        lane_map!(@ $A, $B, $e, $x, $body;
            Bool, Int8, Int16, Int32, Int64, Uint8, Uint16, Uint32, Uint64, Fp32, Fp64, Udf)
    };
    (@ $A:ident, $B:ident, $e:expr, $x:ident, $body:expr; $($V:ident),*) => {
        match $e {
            $($A::$V($x) => $B::$V($body),)*
        }
    };
}

/// The arm of `$E` for domain `$ty`, holding `$new` (its type inferred
/// from the arm); `$udf` is the user-type arm's whole value.
macro_rules! lane_new {
    ($E:ident, $ty:expr, $new:expr; $udf:expr) => {
        lane_new!(@ $E, $ty, $new, $udf;
            Bool, Int8, Int16, Int32, Int64, Uint8, Uint16, Uint32, Uint64, Fp32, Fp64)
    };
    (@ $E:ident, $ty:expr, $new:expr, $udf:expr; $($V:ident),*) => {
        match $ty {
            $($crate::value::GrbType::$V => $E::$V($new),)*
            $crate::value::GrbType::Udf(_) => $udf,
        }
    };
}

pub mod collections;
pub mod context;
pub mod operations;
pub mod ops;
pub mod options;
pub mod udf;
pub mod value;

pub use collections::{GrbMatrix, GrbMatrixSnapshot, GrbVector, GrbVectorSnapshot};
pub use context::{
    current_mode, enable_trace, error, finalize, inject_fault, take_trace, wait, with_no_session,
    with_session, with_session_config, Config,
};
pub use graphblas_core::descriptor::Descriptor;
pub use graphblas_core::error::{Error, Result};
pub use graphblas_core::exec::{Mode, TraceEvent};
pub use graphblas_core::index::{Index, IndexSelection, ALL};
pub use graphblas_core::storage::{snapshot_stats, DeltaStats, SnapshotStats};
pub use operations::*;
pub use ops::{GrbBinaryOp, GrbMonoid, GrbSelectOp, GrbSemiring, GrbUnaryOp};
pub use options::{gxb_get, gxb_set, GxbOption, GxbScope, GxbValue};
pub use udf::{
    grb_binary_op_new, grb_monoid_new, grb_monoid_terminal_new, grb_semiring_new, grb_type_new,
    grb_unary_op_new, GrbTypeHandle,
};
pub use value::{GrbType, Value};
