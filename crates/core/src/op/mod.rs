//! The fundamental GraphBLAS operations of Table II, as methods on
//! [`Context`]:
//!
//! | paper | method(s) |
//! |---|---|
//! | mxm | [`Context::mxm`] |
//! | mxv | [`Context::mxv`] |
//! | vxm | [`Context::vxm`] |
//! | eWiseMult | [`Context::ewise_mult_matrix`], [`Context::ewise_mult_vector`] |
//! | eWiseAdd | [`Context::ewise_add_matrix`], [`Context::ewise_add_vector`] |
//! | reduce (row) | [`Context::reduce_rows`], plus scalar reductions |
//! | apply | [`Context::apply_matrix`], [`Context::apply_vector`] |
//! | transpose | [`Context::transpose`] |
//! | extract | [`Context::extract_matrix`], [`Context::extract_vector`], [`Context::extract_col`] |
//! | assign | [`Context::assign_matrix`], [`Context::assign_vector`], [`Context::assign_scalar_matrix`], [`Context::assign_scalar_vector`] |
//!
//! Every method follows Figure 2's three-stage semantics: form the
//! internal inputs per the descriptor, compute the internal result **T**,
//! then `Z = C ⊙ T` and the masked write. API errors (dimensions,
//! indices) are checked eagerly, before any computation and in both
//! modes; execution errors follow §V.

mod apply;
mod assign;
mod diag;
mod ewise;
mod extract;
mod kron;
mod mxm;
mod mxv;
mod reduce;
mod select;
mod transpose;

use std::sync::Arc;

use crate::error::{dim_check, Error, Result};
use crate::exec::{Completable, Context, Node};
use crate::index::{Index, IndexSelection};
use crate::object::handle::{Handle, Stored};
use crate::object::Matrix;
use crate::scalar::Scalar;

impl Context {
    /// Install a pending node as `out`'s new value and run/defer it per
    /// the mode, applying any injected test fault. `kind` is the Table II
    /// operation name, surfaced in execution traces. The computed value
    /// is re-stored under the output object's policy — migration (if
    /// any) happens here, at completion time, once, and the policy has
    /// the last word over whatever layout a fast-path kernel produced.
    ///
    /// Returns the installed node when the operation is a fusion
    /// candidate, so the caller can attach a producer face and/or
    /// consumer rewrite hook (see `exec::fuse`); `None` (plain
    /// submission) in blocking mode, under `FusePolicy::Off`, or when a
    /// fault was injected.
    pub(crate) fn submit<S: Stored>(
        &self,
        kind: &'static str,
        out: &Handle<S>,
        deps: Vec<Arc<dyn Completable>>,
        eval: impl FnOnce() -> Result<S> + Send + 'static,
    ) -> Result<Option<Arc<Node<S>>>> {
        let policy = out.policy();
        let fault = self.take_fault();
        let fusable = fault.is_none() && self.fusion_active();
        let node = Node::pending_kind(
            kind,
            deps,
            match fault {
                Some(f) => Box::new(move || Err(f)),
                None => Box::new(move || eval().map(|s| s.restore(policy))),
            },
        );
        // The operation overwrites the output's whole value, so any
        // still-buffered point updates are dead by program order. (When
        // the write stage needed the old value — accum or mask — its
        // capture already took the epoch's overlay over them.)
        out.discard_pending();
        out.install(node.clone());
        if fusable {
            node.set_observe_probe(out.observe_probe(&node));
        }
        self.finish_op(node.clone())?;
        Ok(fusable.then_some(node))
    }
}

/// Deferred capture of an operation's *old output value*.
///
/// The write stage only consults the previous content of the output
/// when an accumulator is present or a mask can exclude positions
/// (merge/replace against old values). When neither holds, the output
/// is overwritten wholesale — so the old node is **not** captured as a
/// dependency, which lets nonblocking mode elide entire chains of
/// overwritten intermediates (§IV lazy evaluation) and releases their
/// memory immediately.
pub(crate) struct Old<S: Stored> {
    node: Option<Arc<Node<S>>>,
    shape: S::Key,
}

impl<S: Stored> Clone for Old<S> {
    fn clone(&self) -> Self {
        Old {
            node: self.node.clone(),
            shape: self.shape,
        }
    }
}

impl<S: Stored> Old<S> {
    pub(crate) fn capture(out: &Handle<S>, needed: bool, shape: S::Key) -> Self {
        Old {
            node: needed.then(|| out.capture()),
            shape,
        }
    }

    pub(crate) fn dep(&self) -> Option<Arc<dyn Completable>> {
        self.node.clone().map(|n| n as Arc<dyn Completable>)
    }

    /// The old content — or an empty stand-in when the write stage can't
    /// observe it anyway.
    pub(crate) fn storage(&self) -> Result<Arc<S>> {
        match &self.node {
            Some(n) => n.ready_storage(),
            None => Ok(Arc::new(S::empty(self.shape))),
        }
    }
}

/// Dimensions of a matrix argument after the descriptor's transposition.
pub(crate) fn effective_dims<T: Scalar>(m: &Matrix<T>, transposed: bool) -> (Index, Index) {
    if transposed {
        (m.ncols(), m.nrows())
    } else {
        (m.nrows(), m.ncols())
    }
}

/// Mask dimensions must match the output (Figure 2: "the mask dimensions
/// must match those of the matrix C").
pub(crate) fn check_mask_dims2(mask: Option<(Index, Index)>, out: (Index, Index)) -> Result<()> {
    if let Some(md) = mask {
        dim_check(md == out, || {
            format!(
                "mask is {}x{} but output is {}x{}",
                md.0, md.1, out.0, out.1
            )
        })?;
    }
    Ok(())
}

pub(crate) fn check_mask_dims1(mask: Option<Index>, out: Index) -> Result<()> {
    if let Some(ms) = mask {
        dim_check(ms == out, || {
            format!("mask has size {ms} but output has size {out}")
        })?;
    }
    Ok(())
}

/// Resolve an `assign` target selection against dimension `n`, rejecting
/// duplicate indices (the C spec leaves them undefined; we make the
/// error explicit). Only an explicit list can repeat an index: `GrB_ALL`
/// and ranges resolve ascending and skip the check.
pub(crate) fn resolve_target(sel: IndexSelection<'_>, n: Index, what: &str) -> Result<Vec<Index>> {
    let indices = sel.resolve(n)?;
    if let IndexSelection::List(_) = sel {
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::InvalidValue(format!(
                "duplicate {what} indices in assign target"
            )));
        }
    }
    Ok(indices)
}
