//! The algebraic objects of the GraphBLAS (paper, Section III-B;
//! Figure 1): unary and binary operators, monoids, and semirings.

pub mod binary;
pub mod indexop;
pub mod monoid;
pub mod semiring;
pub mod set;
pub mod udf;
pub mod unary;

pub use binary::{binary_fn, BinaryFn, BinaryOp};
pub use monoid::{Monoid, MonoidDef};
pub use semiring::{Semiring, SemiringDef};
pub use udf::{UdfBinary, UdfTypeId, UdfUnary, UdfValue};
pub use unary::{unary_fn, UnaryFn, UnaryOp};
