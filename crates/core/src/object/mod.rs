//! The opaque GraphBLAS collections (paper §III-A) — two dimension-carrying
//! wrappers over one generic object handle — and the mask-argument
//! plumbing.

pub(crate) mod handle;
pub mod mask_arg;
pub mod matrix;
pub mod vector;

pub use mask_arg::{MatrixMask, VectorMask};
pub use matrix::Matrix;
pub use vector::Vector;
