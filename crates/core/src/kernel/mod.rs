//! The sparse compute kernels beneath the GraphBLAS operations: pure
//! functions from storage to storage, row-parallel where it pays.
//!
//! The operation layer ([`crate::op`]) composes these with the shared
//! accumulate-and-mask write stage ([`mod@write`]) to realize the full
//! Figure 2 semantics.

pub mod apply;
pub mod assign;
pub mod ewise;
pub mod extract;
pub mod merge;
pub mod mxm;
pub mod par;
pub mod reduce;
pub mod spmspv;
pub(crate) mod util;
pub(crate) mod workers;
pub mod write;

pub use mxm::MxmStrategy;
