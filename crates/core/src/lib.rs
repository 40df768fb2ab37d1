//! # graphblas-core
//!
//! A Rust implementation of the GraphBLAS, reproducing *Design of the
//! GraphBLAS API for C* (Buluç, Mattson, McMillan, Moreira, Yang — 2017).
//!
//! The GraphBLAS standardizes linear-algebraic building blocks for graph
//! computations: sparse matrices and vectors over arbitrary *domains*,
//! combined through user-selectable *semirings*, with *masks*,
//! *accumulators*, and *descriptors* controlling every operation.
//!
//! ## Layout
//!
//! * [`algebra`] — operators, monoids, semirings (paper §III-B, Table I/IV)
//! * [`object`] — the opaque collections [`Matrix`] and [`Vector`] (§III-A)
//! * [`mask`], [`descriptor`], [`accum`] — the control objects (§III-C)
//! * [`op`] — the fundamental operations of Table II (mxm, mxv, vxm,
//!   eWiseMult, eWiseAdd, reduce, apply, transpose, extract, assign)
//! * [`exec`] — the execution model: blocking / nonblocking contexts,
//!   `wait`, deferred evaluation (§IV) and the error model (§V)
//! * [`storage`], [`kernel`] — the sparse substrate (CSR/COO storage and
//!   the SpGEMM / SpMV / merge kernels)
//!
//! ## Quickstart
//!
//! ```
//! use graphblas_core::prelude::*;
//!
//! let ctx = Context::blocking();
//! // 0 -> 1 -> 2, 0 -> 2
//! let a = Matrix::<f64>::from_tuples(3, 3,
//!     &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
//! let c = Matrix::<f64>::new(3, 3).unwrap();
//! // two-hop paths: C = A +.* A
//! ctx.mxm(&c, NoMask, NoAccum, plus_times::<f64>(), &a, &a,
//!         &Descriptor::default()).unwrap();
//! assert_eq!(c.get(0, 2).unwrap(), Some(1.0));
//! ```

pub mod accum;
pub mod algebra;
pub mod descriptor;
mod env;
pub mod error;
pub mod exec;
pub mod index;
pub mod kernel;
pub mod mask;
pub mod object;
pub mod op;
pub mod scalar;
pub mod storage;

pub use accum::{Accum, NoAccum};
pub use descriptor::Descriptor;
pub use error::{Error, Result};
pub use exec::{pool_status, Context, Mode, PoolStatus, SchedPolicy, TraceEvent};
pub use index::{Index, IndexSelection, ALL};
pub use kernel::par;
pub use kernel::spmspv;
pub use mask::NoMask;
pub use object::{Matrix, Vector};
pub use scalar::{AsBool, NumScalar, Scalar};
pub use storage::engine::{Format, FormatPolicy};
pub use storage::{snapshot_stats, DeltaStats, MatrixSnapshot, SnapshotStats, VectorSnapshot};

/// Convenient glob import: `use graphblas_core::prelude::*`.
pub mod prelude {
    pub use crate::accum::{Accum, NoAccum};
    pub use crate::algebra::binary::{
        binary_fn, BinaryOp, First, LAnd, LOr, LXor, Max, Min, Minus, Pair, Plus, Second, Times,
    };
    pub use crate::algebra::indexop::{
        select_fn, Diag, IndexSelectOp, OffDiag, Tril, Triu, ValueEq, ValueGe, ValueGt, ValueLe,
        ValueLt, ValueNe,
    };
    pub use crate::algebra::monoid::{
        LAndMonoid, LOrMonoid, LXorMonoid, MaxMonoid, MinMonoid, Monoid, MonoidDef, PlusMonoid,
        TimesMonoid,
    };
    pub use crate::algebra::semiring::{
        lor_land, max_plus, min_first, min_max, min_plus, min_second, plus_first, plus_pair,
        plus_second, plus_times, union_intersect, xor_and, Semiring, SemiringDef,
    };
    pub use crate::algebra::set::SmallSet;
    pub use crate::algebra::unary::{
        unary_fn, Abs, Ainv, Cast, Identity, LNot, Minv, One, UnaryOp,
    };
    pub use crate::descriptor::Descriptor;
    pub use crate::error::{Error, Result};
    pub use crate::exec::{Context, FusePolicy, Mode, SchedPolicy, TraceEvent};
    pub use crate::index::{Index, IndexSelection, ALL};
    pub use crate::mask::NoMask;
    pub use crate::object::{Matrix, Vector};
    pub use crate::scalar::{AsBool, CastFrom, NumScalar, Scalar};
    pub use crate::storage::engine::{Format, FormatPolicy};
    pub use crate::storage::{
        snapshot_stats, DeltaStats, MatrixSnapshot, SnapshotStats, VectorSnapshot,
    };
}
