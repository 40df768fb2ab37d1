//! Sparse storage substrate: CSR matrices, sorted sparse vectors, the
//! tuple-assembly (`build`) routines, the pending-update delta logs, and
//! MVCC snapshots over them.

pub mod coo;
pub mod csr;
pub mod delta;
pub mod engine;
pub mod snapshot;
pub(crate) mod tiled;
pub mod vec;

pub use coo::{build_matrix, build_vector};
pub use csr::Csr;
pub use delta::{DeltaEntry, DeltaLog, DeltaOp, DeltaStats};
pub use engine::MatrixStore;
pub use snapshot::{snapshot_stats, MatrixSnapshot, SnapshotStats, VectorSnapshot};
pub use vec::SparseVec;
