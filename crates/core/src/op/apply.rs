//! `GrB_apply` (Table II): `C<Mask> ⊙= F_u(A)` / `w<mask> ⊙= F_u(u)`.
//!
//! `apply` is both the most fusable *consumer* (a unary op composes over
//! any producer's output stage) and a fusable *producer* (it preserves
//! the input pattern, so downstream rewrites can traverse it lazily).
//! When submitted under an active [`crate::exec::FusePolicy`], each call
//! therefore installs a producer face and a consumer rewrite hook on its
//! node; see `exec::fuse` for the pass that runs them.

use std::any::Any;
use std::sync::Arc;

use crate::accum::Accumulate;
use crate::algebra::unary::UnaryOp;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::fuse::{
    addr, face_as, DotFn, FuseCtx, FusedEvent, FusedNote, LazyMat, LazyVec, MatProducer,
    VecProducer,
};
use crate::exec::{Completable, Context};
use crate::kernel::apply::{apply_matrix, apply_vector};
use crate::kernel::write::{write_masked_matrix, write_matrix, write_vector};
use crate::mask::{MaskCsr, MaskVec};
use crate::object::mask_arg::{MaskSnap1, MaskSnap2, MatrixMask, VectorMask};
use crate::object::matrix::{oriented_storage, MatrixNode};
use crate::object::vector::VectorNode;
use crate::object::{Matrix, Vector};
use crate::op::{check_mask_dims1, check_mask_dims2, effective_dims, Old};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::{FormatPolicy, MatrixStore};
use crate::storage::vec::SparseVec;

/// The producer face of a pure (unaccumulated, unmasked) matrix apply:
/// pattern-preserving, so it offers all three forms — masked recompute
/// (mask ignored; apply admits no pushdown win), lazy pattern+thunk for
/// chain fusion, and row-major emission for reduce fusion.
fn apply_mat_face<D1, D2, F>(a_node: &Arc<MatrixNode<D1>>, tr_a: bool, f: &F) -> MatProducer<D2>
where
    D1: Scalar,
    D2: Scalar,
    F: UnaryOp<D1, D2>,
{
    let compute = {
        let (a_node, f) = (a_node.clone(), f.clone());
        Arc::new(move |_m: &MaskCsr| -> Result<Csr<D2>> {
            let a_st = oriented_storage(&a_node, tr_a)?;
            Ok(apply_matrix(&a_st, &f))
        }) as Arc<dyn Fn(&MaskCsr) -> Result<Csr<D2>> + Send + Sync>
    };
    let lazy = {
        let (a_node, f) = (a_node.clone(), f.clone());
        Some(Arc::new(move || -> Result<LazyMat<D2>> {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let f = f.clone();
            Ok(LazyMat {
                nrows: a_st.nrows(),
                ncols: a_st.ncols(),
                row_ptr: a_st.row_ptr().to_vec(),
                col_idx: a_st.col_idx().to_vec(),
                val_at: Box::new(move |k| f.apply(&a_st.vals()[k])),
            })
        })
            as Arc<dyn Fn() -> Result<LazyMat<D2>> + Send + Sync>)
    };
    let dot = {
        let (a_node, f) = (a_node.clone(), f.clone());
        Some(Arc::new(move |emit: &mut dyn FnMut(D2)| -> Result<()> {
            let a_st = oriented_storage(&a_node, tr_a)?;
            for v in a_st.vals() {
                emit(f.apply(v));
            }
            Ok(())
        }) as DotFn<D2>)
    };
    MatProducer {
        deps: vec![a_node.clone() as Arc<dyn Completable>],
        compute,
        maskable: false,
        lazy,
        dot,
        kind: "apply",
    }
}

/// Vector counterpart of [`apply_mat_face`].
fn apply_vec_face<D1, D2, F>(u_node: &Arc<VectorNode<D1>>, f: &F) -> VecProducer<D2>
where
    D1: Scalar,
    D2: Scalar,
    F: UnaryOp<D1, D2>,
{
    let compute = {
        let (u_node, f) = (u_node.clone(), f.clone());
        Arc::new(move |_m: &MaskVec| -> Result<SparseVec<D2>> {
            let u_st = u_node.ready_storage()?;
            Ok(apply_vector(&u_st, &f))
        }) as Arc<dyn Fn(&MaskVec) -> Result<SparseVec<D2>> + Send + Sync>
    };
    let lazy = {
        let (u_node, f) = (u_node.clone(), f.clone());
        Some(Arc::new(move || -> Result<LazyVec<D2>> {
            let u_st = u_node.ready_storage()?;
            let f = f.clone();
            Ok(LazyVec {
                size: u_st.size(),
                indices: u_st.indices().to_vec(),
                val_at: Box::new(move |k| f.apply(&u_st.vals()[k])),
            })
        })
            as Arc<dyn Fn() -> Result<LazyVec<D2>> + Send + Sync>)
    };
    let dot = {
        let (u_node, f) = (u_node.clone(), f.clone());
        Some(Arc::new(move |emit: &mut dyn FnMut(D2)| -> Result<()> {
            let u_st = u_node.ready_storage()?;
            for v in u_st.vals() {
                emit(f.apply(v));
            }
            Ok(())
        }) as DotFn<D2>)
    };
    VecProducer {
        deps: vec![u_node.clone() as Arc<dyn Completable>],
        compute,
        maskable: false,
        lazy,
        dot,
        kind: "apply",
    }
}

/// Install the consumer-side rewrite hook on a matrix apply node: if the
/// input producer turns out exclusively dead at wait time and exposes a
/// face, compose this apply over it and swap the fused evaluator in.
#[allow(clippy::too_many_arguments)]
fn install_apply_mat_hook<D1, D2, F, Ac>(
    node: &Arc<MatrixNode<D2>>,
    a_node: &Arc<MatrixNode<D1>>,
    f: F,
    accum: Ac,
    msnap: MaskSnap2,
    c_old: Old<MatrixStore<D2>>,
    replace: bool,
    policy: FormatPolicy,
) where
    D1: Scalar,
    D2: Scalar,
    F: UnaryOp<D1, D2>,
    Ac: Accumulate<D2>,
{
    let me = Arc::downgrade(node);
    let producer: Arc<dyn Completable> = a_node.clone();
    let prod_node = a_node.clone();
    node.set_fuse_hook(Box::new(move |cx: &FuseCtx| {
        let me = me.upgrade()?;
        if !cx.exclusively_dead(&producer) {
            return None;
        }
        let face = face_as::<MatProducer<D1>>(prod_node.fuse_face()?)?;
        let comp = Arc::new(face.map(&f));
        let use_mask = comp.maskable && !msnap.is_all();
        let rewrite = if use_mask {
            "mask-pushdown"
        } else if comp.lazy.is_some() {
            "apply-chain"
        } else {
            "apply-into-producer"
        };
        let mut new_deps: Vec<Arc<dyn Completable>> = comp.deps.clone();
        new_deps.extend(c_old.dep());
        new_deps.extend(msnap.deps());
        let note = FusedNote {
            rewrite,
            producer: face.kind,
            consumer: "apply",
        };
        let eval = {
            let comp = comp.clone();
            let (accum, msnap, c_old) = (accum.clone(), msnap.clone(), c_old.clone());
            Box::new(move || -> Result<MatrixStore<D2>> {
                let old = c_old.storage()?.row_csr();
                let mcsr = msnap.materialize()?;
                let t = if use_mask {
                    (comp.compute)(&mcsr)?
                } else if let Some(lz) = &comp.lazy {
                    lz()?.materialize()
                } else {
                    (comp.compute)(&MaskCsr::All)?
                };
                let out = if use_mask {
                    write_masked_matrix(&old, t, &accum, &mcsr, replace)
                } else {
                    write_matrix(&old, t, &accum, &mcsr, replace)
                };
                if let Some(e) = accum.poll_error() {
                    return Err(e);
                }
                Ok(MatrixStore::csr(out).apply_policy(policy))
            })
        };
        if !me.replace_pending(new_deps, eval) {
            return None;
        }
        if !accum.is_accum() && msnap.is_all() {
            // Pure fused apply: re-install the *composed* face so a
            // further downstream consumer cascades over it (a stale face
            // here would resurrect the just-absorbed producer edge).
            me.set_fuse_face(comp as Arc<dyn Any + Send + Sync>);
        }
        Some(FusedEvent {
            note,
            absorbed: addr(&producer),
        })
    }));
}

/// Vector counterpart of [`install_apply_mat_hook`].
fn install_apply_vec_hook<D1, D2, F, Ac>(
    node: &Arc<VectorNode<D2>>,
    u_node: &Arc<VectorNode<D1>>,
    f: F,
    accum: Ac,
    msnap: MaskSnap1,
    w_old: Old<SparseVec<D2>>,
    replace: bool,
) where
    D1: Scalar,
    D2: Scalar,
    F: UnaryOp<D1, D2>,
    Ac: Accumulate<D2>,
{
    let me = Arc::downgrade(node);
    let producer: Arc<dyn Completable> = u_node.clone();
    let prod_node = u_node.clone();
    node.set_fuse_hook(Box::new(move |cx: &FuseCtx| {
        let me = me.upgrade()?;
        if !cx.exclusively_dead(&producer) {
            return None;
        }
        let face = face_as::<VecProducer<D1>>(prod_node.fuse_face()?)?;
        let comp = Arc::new(face.map(&f));
        let use_mask = comp.maskable && !msnap.is_all();
        let rewrite = if use_mask {
            "mask-pushdown"
        } else if comp.lazy.is_some() {
            "apply-chain"
        } else {
            "apply-into-producer"
        };
        let mut new_deps: Vec<Arc<dyn Completable>> = comp.deps.clone();
        new_deps.extend(w_old.dep());
        new_deps.extend(msnap.deps());
        let note = FusedNote {
            rewrite,
            producer: face.kind,
            consumer: "apply",
        };
        let eval = {
            let comp = comp.clone();
            let (accum, msnap, w_old) = (accum.clone(), msnap.clone(), w_old.clone());
            Box::new(move || -> Result<SparseVec<D2>> {
                let old = w_old.storage()?;
                let mvec = msnap.materialize()?;
                let t = if use_mask {
                    (comp.compute)(&mvec)?
                } else if let Some(lz) = &comp.lazy {
                    lz()?.materialize()
                } else {
                    (comp.compute)(&MaskVec::All)?
                };
                let out = write_vector(&old, t, &accum, &mvec, replace);
                if let Some(e) = accum.poll_error() {
                    return Err(e);
                }
                Ok(out)
            })
        };
        if !me.replace_pending(new_deps, eval) {
            return None;
        }
        if !accum.is_accum() && msnap.is_all() {
            me.set_fuse_face(comp as Arc<dyn Any + Send + Sync>);
        }
        Some(FusedEvent {
            note,
            absorbed: addr(&producer),
        })
    }));
}

impl Context {
    /// `GrB_apply` (matrix): apply a unary operator to every stored
    /// element; pattern preserved.
    pub fn apply_matrix<D1, D2, F, Ac, Mk>(
        &self,
        c: &Matrix<D2>,
        mask: Mk,
        accum: Ac,
        f: F,
        a: &Matrix<D1>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        F: UnaryOp<D1, D2>,
        Ac: Accumulate<D2>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let da = effective_dims(a, tr_a);
        dim_check(c.shape() == da, || {
            format!("apply output is {:?} but input is {da:?}", c.shape())
        })?;
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        let a_node = a.handle.capture();
        let msnap = mask.snap(desc);
        let c_old_cap = c.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![a_node.clone() as _];
        deps.extend(c_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = {
            let (a_node, f, accum) = (a_node.clone(), f.clone(), accum.clone());
            let (msnap, c_old_cap) = (msnap.clone(), c_old_cap.clone());
            move || {
                let a_st = oriented_storage(&a_node, tr_a)?;
                let c_old = c_old_cap.storage()?.row_csr();
                let mcsr = msnap.materialize()?;
                let t = apply_matrix(&a_st, &f);
                let out = write_matrix(&c_old, t, &accum, &mcsr, replace);
                if let Some(e) = accum.poll_error() {
                    return Err(e);
                }
                Ok(MatrixStore::csr(out))
            }
        };
        let Some(node) = self.submit("apply", &c.handle, deps, eval)? else {
            return Ok(());
        };
        if !accum.is_accum() && msnap.is_all() {
            node.set_fuse_face(
                Arc::new(apply_mat_face(&a_node, tr_a, &f)) as Arc<dyn Any + Send + Sync>
            );
        }
        if !tr_a {
            // With INP0 transposed the composition over the producer's
            // face would need a transpose stage; not worth the rewrite.
            install_apply_mat_hook(
                &node,
                &a_node,
                f,
                accum,
                msnap,
                c_old_cap,
                replace,
                c.format_policy(),
            );
        }
        Ok(())
    }

    /// `GrB_apply` (vector).
    pub fn apply_vector<D1, D2, F, Ac, Mk>(
        &self,
        w: &Vector<D2>,
        mask: Mk,
        accum: Ac,
        f: F,
        u: &Vector<D1>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        F: UnaryOp<D1, D2>,
        Ac: Accumulate<D2>,
        Mk: VectorMask,
    {
        dim_check(w.size() == u.size(), || {
            format!("apply output is {} but input is {}", w.size(), u.size())
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let u_node = u.handle.capture();
        let msnap = mask.snap(desc);
        let w_old_cap = w.old(accum.is_accum() || (!msnap.is_all() && !desc.is_replace()));
        let mut deps: Vec<_> = vec![u_node.clone() as _];
        deps.extend(w_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = {
            let (u_node, f, accum) = (u_node.clone(), f.clone(), accum.clone());
            let (msnap, w_old_cap) = (msnap.clone(), w_old_cap.clone());
            move || {
                let u_st = u_node.ready_storage()?;
                let w_old = w_old_cap.storage()?;
                let mvec = msnap.materialize()?;
                let t = apply_vector(&u_st, &f);
                let out = write_vector(&w_old, t, &accum, &mvec, replace);
                if let Some(e) = accum.poll_error() {
                    return Err(e);
                }
                Ok(out)
            }
        };
        let Some(node) = self.submit("apply", &w.handle, deps, eval)? else {
            return Ok(());
        };
        if !accum.is_accum() && msnap.is_all() {
            node.set_fuse_face(Arc::new(apply_vec_face(&u_node, &f)) as Arc<dyn Any + Send + Sync>);
        }
        install_apply_vec_hook(&node, &u_node, f, accum, msnap, w_old_cap, replace);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NoAccum;
    use crate::algebra::unary::{unary_fn, Cast, Minv};
    use crate::error::Error;
    use crate::mask::NoMask;

    #[test]
    fn fig3_line57_nspinv() {
        // GrB_apply(&nspinv, NULL, NULL, GrB_MINV_FP32, numsp, NULL)
        let ctx = Context::blocking();
        let numsp = Matrix::from_tuples(2, 2, &[(0, 0, 2.0f32), (1, 1, 4.0)]).unwrap();
        let nspinv = Matrix::<f32>::new(2, 2).unwrap();
        ctx.apply_matrix(
            &nspinv,
            NoMask,
            NoAccum,
            Minv::new(),
            &numsp,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            nspinv.extract_tuples().unwrap(),
            vec![(0, 0, 0.5), (1, 1, 0.25)]
        );
    }

    #[test]
    fn fig3_line41_bool_cast() {
        // sigmas[d] = (Boolean) frontier
        let ctx = Context::blocking();
        let frontier = Matrix::from_tuples(2, 2, &[(0, 1, 7i32)]).unwrap();
        let sigma = Matrix::<bool>::new(2, 2).unwrap();
        ctx.apply_matrix(
            &sigma,
            NoMask,
            NoAccum,
            Cast::<i32, bool>::new(),
            &frontier,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(sigma.extract_tuples().unwrap(), vec![(0, 1, true)]);
    }

    #[test]
    fn apply_transposed_input() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 3, &[(1, 2, 5)]).unwrap();
        let c = Matrix::<i32>::new(3, 2).unwrap();
        ctx.apply_matrix(
            &c,
            NoMask,
            NoAccum,
            unary_fn(|x: &i32| x * 10),
            &a,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(2, 1, 50)]);
    }

    #[test]
    fn apply_vector_masked() {
        let ctx = Context::blocking();
        let u = Vector::from_dense(&[1, 2, 3]).unwrap();
        let w = Vector::from_tuples(3, &[(0, 100)]).unwrap();
        let mask = Vector::from_tuples(3, &[(1, true)]).unwrap();
        ctx.apply_vector(
            &w,
            &mask,
            NoAccum,
            unary_fn(|x: &i32| -x),
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        // merge mode: (1) admitted -> -2; (0) not admitted -> old 100 kept
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 100), (1, -2)]);
    }

    #[test]
    fn shape_mismatch() {
        let ctx = Context::blocking();
        let a = Matrix::<i32>::new(2, 3).unwrap();
        let c = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(
            ctx.apply_matrix(
                &c,
                NoMask,
                NoAccum,
                Minv::<i32>::new(),
                &a,
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
    }
}
