//! Mask arguments: how `GrB_NULL` / a matrix / a vector is passed as the
//! `Mask` parameter of an operation.
//!
//! Operations accept any [`MatrixMask`] / [`VectorMask`]:
//! [`NoMask`] (the `GrB_NULL` literal) or a reference
//! to any collection whose domain casts to Boolean. At call time the
//! operation takes a *snapshot* of the mask object's node (program-order
//! semantics under deferral) together with the descriptor's
//! SCMP/STRUCTURE flags; the kernel-facing
//! [`MaskCsr`]/[`MaskVec`] is materialized at evaluation time.

use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::exec::Completable;
use crate::index::Index;
use crate::mask::{MaskCsr, MaskVec, NoMask};
use crate::object::matrix::{Matrix, MatrixNode};
use crate::object::vector::{Vector, VectorNode};
use crate::scalar::AsBool;

// ----- type-erased mask sources -----

#[doc(hidden)]
pub trait MaskSource2: Send + Sync {
    fn completable(&self) -> Arc<dyn Completable>;
    fn materialize(&self, structural: bool, complement: bool) -> Result<MaskCsr>;
}

struct MatrixMaskSource<M: AsBool>(Arc<MatrixNode<M>>);

impl<M: AsBool> MaskSource2 for MatrixMaskSource<M> {
    fn completable(&self) -> Arc<dyn Completable> {
        self.0.clone()
    }

    fn materialize(&self, structural: bool, complement: bool) -> Result<MaskCsr> {
        let st = self.0.ready_storage()?.row_csr();
        Ok(MaskCsr::from_csr(&st, structural, complement))
    }
}

#[doc(hidden)]
pub trait MaskSource1: Send + Sync {
    fn completable(&self) -> Arc<dyn Completable>;
    fn materialize(&self, structural: bool, complement: bool) -> Result<MaskVec>;
}

struct VectorMaskSource<M: AsBool>(Arc<VectorNode<M>>);

impl<M: AsBool> MaskSource1 for VectorMaskSource<M> {
    fn completable(&self) -> Arc<dyn Completable> {
        self.0.clone()
    }

    fn materialize(&self, structural: bool, complement: bool) -> Result<MaskVec> {
        let st = self.0.ready_storage()?;
        Ok(MaskVec::from_vec(&st, structural, complement))
    }
}

// ----- snapshots captured by operations -----

/// A 2D mask argument snapshot: the mask object's node at call time plus
/// the descriptor's mask flags.
#[derive(Clone)]
#[doc(hidden)]
pub enum MaskSnap2 {
    All,
    Mat {
        src: Arc<dyn MaskSource2>,
        structural: bool,
        complement: bool,
    },
}

/// What the write stage reads of a mask snapshot, for either shape.
pub(crate) trait Snap: Send + 'static {
    /// The kernel-facing mask: [`MaskCsr`] or [`MaskVec`].
    type Mask;
    /// `true` when no mask was supplied (every position admitted).
    fn is_all(&self) -> bool;
    /// The mask object's node, if any: a dependency of the operation.
    fn deps(&self) -> Vec<Arc<dyn Completable>>;
    /// The mask at evaluation time, descriptor flags applied.
    fn materialize(&self) -> Result<Self::Mask>;
}

impl Snap for MaskSnap2 {
    type Mask = MaskCsr;

    fn is_all(&self) -> bool {
        matches!(self, MaskSnap2::All)
    }

    fn deps(&self) -> Vec<Arc<dyn Completable>> {
        match self {
            MaskSnap2::All => Vec::new(),
            MaskSnap2::Mat { src, .. } => vec![src.completable()],
        }
    }

    fn materialize(&self) -> Result<MaskCsr> {
        match self {
            MaskSnap2::All => Ok(MaskCsr::All),
            MaskSnap2::Mat {
                src,
                structural,
                complement,
            } => src.materialize(*structural, *complement),
        }
    }
}

/// A 1D mask argument snapshot.
#[derive(Clone)]
#[doc(hidden)]
pub enum MaskSnap1 {
    All,
    Vec {
        src: Arc<dyn MaskSource1>,
        structural: bool,
        complement: bool,
    },
}

impl Snap for MaskSnap1 {
    type Mask = MaskVec;

    fn is_all(&self) -> bool {
        matches!(self, MaskSnap1::All)
    }

    fn deps(&self) -> Vec<Arc<dyn Completable>> {
        match self {
            MaskSnap1::All => Vec::new(),
            MaskSnap1::Vec { src, .. } => vec![src.completable()],
        }
    }

    fn materialize(&self) -> Result<MaskVec> {
        match self {
            MaskSnap1::All => Ok(MaskVec::All),
            MaskSnap1::Vec {
                src,
                structural,
                complement,
            } => src.materialize(*structural, *complement),
        }
    }
}

// ----- public argument traits -----

/// A value usable as the 2D `Mask` argument of a matrix operation:
/// [`NoMask`] or `&Matrix<M>` with `M: AsBool`.
pub trait MatrixMask {
    /// Mask dimensions, if a mask is present (checked against the output).
    fn mask_dims(&self) -> Option<(Index, Index)>;
    #[doc(hidden)]
    fn snap(&self, desc: &Descriptor) -> MaskSnap2;
}

impl MatrixMask for NoMask {
    fn mask_dims(&self) -> Option<(Index, Index)> {
        None
    }

    fn snap(&self, _desc: &Descriptor) -> MaskSnap2 {
        MaskSnap2::All
    }
}

impl<M: AsBool> MatrixMask for &Matrix<M> {
    fn mask_dims(&self) -> Option<(Index, Index)> {
        Some(self.shape())
    }

    fn snap(&self, desc: &Descriptor) -> MaskSnap2 {
        MaskSnap2::Mat {
            src: Arc::new(MatrixMaskSource(self.handle.capture())),
            structural: desc.is_mask_structural(),
            complement: desc.is_mask_complemented(),
        }
    }
}

/// A value usable as the 1D `mask` argument of a vector operation:
/// [`NoMask`] or `&Vector<M>` with `M: AsBool`.
pub trait VectorMask {
    fn mask_size(&self) -> Option<Index>;
    #[doc(hidden)]
    fn snap(&self, desc: &Descriptor) -> MaskSnap1;
}

impl VectorMask for NoMask {
    fn mask_size(&self) -> Option<Index> {
        None
    }

    fn snap(&self, _desc: &Descriptor) -> MaskSnap1 {
        MaskSnap1::All
    }
}

impl<M: AsBool> VectorMask for &Vector<M> {
    fn mask_size(&self) -> Option<Index> {
        Some(self.size())
    }

    fn snap(&self, desc: &Descriptor) -> MaskSnap1 {
        MaskSnap1::Vec {
            src: Arc::new(VectorMaskSource(self.handle.capture())),
            structural: desc.is_mask_structural(),
            complement: desc.is_mask_complemented(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mask_snapshots_to_all() {
        let d = Descriptor::default();
        assert!(matches!(MatrixMask::snap(&NoMask, &d), MaskSnap2::All));
        assert!(MatrixMask::mask_dims(&NoMask).is_none());
        let m = MatrixMask::snap(&NoMask, &d);
        assert!(m.deps().is_empty());
        assert!(m.materialize().unwrap().admits_all());
    }

    #[test]
    fn matrix_mask_snapshot_is_point_in_time() {
        let d = Descriptor::default();
        let m = Matrix::from_tuples(2, 2, &[(0, 0, 1i32)]).unwrap();
        let snap = (&m).snap(&d);
        // mutate after snapshot: the snapshot must not see it
        m.set(1, 1, 1).unwrap();
        let mask = snap.materialize().unwrap();
        assert!(mask.admits(0, 0));
        assert!(!mask.admits(1, 1));
    }

    #[test]
    fn descriptor_flags_flow_into_snapshot() {
        let m = Matrix::from_tuples(2, 2, &[(0, 0, 0i32)]).unwrap(); // stored false
        let plain = (&m).snap(&Descriptor::default()).materialize().unwrap();
        assert!(!plain.admits(0, 0)); // value mode drops stored false
        let structural = (&m)
            .snap(&Descriptor::default().structural_mask())
            .materialize()
            .unwrap();
        assert!(structural.admits(0, 0));
        let comp = (&m)
            .snap(&Descriptor::default().complement_mask())
            .materialize()
            .unwrap();
        assert!(comp.admits(0, 0));
        assert!(comp.admits(1, 1));
    }

    #[test]
    fn vector_mask_snapshot() {
        let v = Vector::from_tuples(3, &[(1, true)]).unwrap();
        let snap = (&v).snap(&Descriptor::default());
        assert_eq!((&v).mask_size(), Some(3));
        let mask = snap.materialize().unwrap();
        assert!(mask.admits(1));
        assert!(!mask.admits(0));
    }
}
