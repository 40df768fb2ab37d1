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
//! Every method follows Figure 2's three steps: form the internal inputs
//! per the descriptor and compute the internal result **T**, then
//! `Z = C ⊙ T`, then the masked write. Each method owns only the first
//! step — its own dimension checks, its input captures and one closure
//! computing **T** under the materialized mask. The second and third
//! steps happen in one place, this module's write stage (`Fig2`): it
//! checks the mask against the output, snapshots it, decides whether
//! the old output is read at all, materializes the mask, forms and
//! writes **Z** (an accumulate that changes values only folds **T** into
//! the old output's own storage when no one else holds it), polls the
//! accumulator and submits. API errors
//! (dimensions, indices) are checked eagerly, before any computation and
//! in both modes; execution errors follow §V.

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

use crate::accum::{Accumulate, NoAccum};
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Error, Result};
use crate::exec::{invalidated, Completable, Context, Node};
use crate::index::{Index, IndexSelection};
use crate::kernel::write::{fold, WriteTarget};
use crate::object::handle::{Handle, Stored};
use crate::object::mask_arg::{MaskSnap1, MaskSnap2, Snap};
use crate::object::{Matrix, MatrixMask, Vector, VectorMask};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::MatrixStore;
use crate::storage::vec::SparseVec;

impl Context {
    /// Install a pending node as `out`'s new value and run/defer it per
    /// the mode, applying any injected test fault. `kind` is the Table II
    /// operation name, surfaced in execution traces. `eval` returns the
    /// value already re-stored under the output object's policy
    /// (`Stored::restore`, read at submission): tiling (if any)
    /// happens at completion time, once.
    pub(crate) fn submit<S: Stored>(
        &self,
        kind: &'static str,
        out: &Handle<S>,
        deps: Vec<Arc<dyn Completable>>,
        eval: Box<dyn FnOnce() -> Result<S> + Send>,
    ) -> Result<()> {
        let node = Node::pending_kind(
            kind,
            deps,
            match self.take_fault() {
                Some(f) => Box::new(move || Err(f)),
                None => eval,
            },
        );
        // The operation overwrites the output's whole value, so any
        // still-buffered point updates are dead by program order. (When
        // the write stage needed the old value — accum or mask — its
        // capture already took the epoch's overlay over them.)
        out.discard_pending();
        out.install(node.clone());
        self.finish_op(node)
    }

    /// Open Figure 2's write stage for an operation writing `out`: the
    /// mask must match the output ("the mask dimensions must match those
    /// of the matrix C"), checked eagerly, and is snapshotted now.
    fn fig2<'a, O: Output, Ac: Accumulate<Elem<O>>>(
        &'a self,
        out: &'a O,
        mask: impl MaskFor<O>,
        accum: Ac,
        desc: &Descriptor,
    ) -> Result<Fig2<'a, O, Ac>> {
        mask.check_dims(out)?;
        Ok(Fig2 {
            ctx: self,
            out,
            msnap: mask.snapshot(desc),
            accum,
            replace: desc.is_replace(),
            reads_c: false,
            first: First::Old,
        })
    }
}

/// Figure 2's second and third steps for one operation call.
struct Fig2<'a, O: Output, Ac> {
    ctx: &'a Context,
    out: &'a O,
    msnap: O::Snap,
    accum: Ac,
    replace: bool,
    /// The compute step reads the old output itself.
    reads_c: bool,
    first: First,
}

/// Which argument an operation reads first: when several are invalid,
/// the first one read names the root cause of its `InvalidObject`. Each
/// entry point keeps the order it has always had.
#[derive(Clone, Copy, PartialEq)]
enum First {
    /// The old output, the mask, then the inputs (inside `compute`).
    Old,
    /// The inputs, the old output, then the mask.
    Inputs,
    /// The mask, then the old output.
    Mask,
}

/// What an operation's compute step hands the write stage.
enum Computed<O: Output> {
    /// Figure 2's **T**: the stage forms `Z = C ⊙ T` and writes it under
    /// the mask.
    T(O::Value),
    /// **T** computed under the stage's own mask (`mxm`, `eWiseMult`,
    /// `mxv`, `vxm`): every stored position is admitted, so replace mode
    /// without an accumulator writes `T ∩ mask = T` as it is.
    Masked(O::Value),
    /// A finished **Z** (`assign`): the stage applies the mask alone.
    Z(O::Value),
    /// The output's final value (a fast path): nothing is left to write.
    Done(O::Store),
}

impl<O: Output, Ac: Accumulate<Elem<O>>> Fig2<'_, O, Ac> {
    /// `assign`'s Z is the old output with a region updated, so the old
    /// value is read whatever the accumulator and mask.
    fn reading_c(self) -> Self {
        Fig2 {
            reads_c: true,
            ..self
        }
    }

    /// Read `first` first, rather than the old output.
    fn reading(self, first: First) -> Self {
        Fig2 { first, ..self }
    }

    /// Capture the old output when the write can observe it and submit
    /// the deferred node: materialize the mask, run `compute` under it
    /// (with the accumulator and the old output, which only `assign`
    /// reads), write its result and poll the accumulator. The old output,
    /// the mask and `inputs` are read in the entry point's [`First`]
    /// order.
    ///
    /// Without an accumulator, and with no mask or a replace-mode one,
    /// the write overwrites the output wholesale. Its old node is then
    /// no dependency, so nonblocking mode drops whole chains of
    /// overwritten values unrun (§IV) and frees them at once.
    fn submit(
        self,
        kind: &'static str,
        inputs: Vec<Arc<dyn Completable>>,
        compute: impl FnOnce(&Mask<O>, &Ac, &O::Value) -> Result<Computed<O>> + Send + 'static,
    ) -> Result<()> {
        let Fig2 {
            ctx,
            out,
            msnap,
            accum,
            replace,
            reads_c,
            first,
        } = self;
        let read = reads_c || accum.is_accum() || (!msnap.is_all() && !replace);
        let old = read.then(|| out.handle().capture());
        let shape = out.shape();
        let inputs_first = (first == First::Inputs).then(|| inputs.clone());
        let mut deps = inputs;
        deps.extend(old.clone().map(|n| n as Arc<dyn Completable>));
        deps.extend(msnap.deps());
        let policy = out.handle().policy();
        let eval = move || {
            // consumed here: an input that aliases the output must not
            // keep the old value shared past its check
            if let Some(e) = inputs_first.into_iter().flatten().find_map(|n| n.failure()) {
                return Err(invalidated(&e));
            }
            // an old value the write cannot observe reads as empty
            let old = old.unwrap_or_else(|| Node::ready(O::Store::empty(shape)));
            let (c, mask) = if first == First::Mask {
                let mask = msnap.materialize()?;
                (old.ready_storage()?, mask)
            } else {
                (old.ready_storage()?, msnap.materialize()?)
            };
            let c = O::value(c);
            let z = compute(&mask, &accum, &c)?.write(c, old, &accum, &mask, replace)?;
            accum.poll_error().map_or(Ok(z.restore(policy)), Err)
        };
        ctx.submit(kind, out.handle(), deps, Box::new(eval))
    }
}

impl<O: Output> Computed<O> {
    /// `Z = C ⊙ T` and the masked write into old content `c`, held by
    /// the node `old`. The identity writes return their value without a
    /// pass. When every stored position of T is admitted, nothing is
    /// cleared and pattern(T) ⊆ pattern(C), Z is C with T folded into its
    /// values: in C's own storage when this stage holds the last
    /// reference to it, else in a copy. Only `Arc` counts decide, so a
    /// snapshot, a `dup`, a pending consumer or an aliased input still
    /// holding the old value keeps it unchanged.
    fn write<Ac: Accumulate<Elem<O>>>(
        self,
        c: Arc<O::Value>,
        old: Arc<Node<O::Store>>,
        accum: &Ac,
        mask: &Mask<O>,
        replace: bool,
    ) -> Result<O::Store> {
        let (assigns, all) = (!accum.is_accum(), O::Value::admits_all(mask));
        let folds = !assigns && (all || (!replace && matches!(self, Computed::Masked(_))));
        Ok(O::store(match self {
            Computed::Done(store) => return Ok(store),
            Computed::T(t) if assigns && all => t,
            Computed::Masked(t) if assigns && (all || replace) => t,
            Computed::T(t) | Computed::Masked(t) => {
                match folds.then(|| c.positions(&t)).flatten() {
                    Some(at) => {
                        drop(c);
                        let c = O::value(old.take_storage()?);
                        fold(Arc::unwrap_or_clone(c), &t, &at, accum)
                    }
                    None => c.write(t, accum, mask, replace),
                }
            }
            Computed::Z(z) if all => z,
            Computed::Z(z) => c.write(z, &NoAccum, mask, replace),
        }))
    }
}

/// One of Figure 2's two output shapes: a matrix, written as CSR under a
/// [`MaskCsr`](crate::mask::MaskCsr), or a vector, written under a
/// [`MaskVec`](crate::mask::MaskVec).
trait Output {
    type Store: Stored;
    /// **T**, **Z** and the old output as the write kernels read them.
    type Value: WriteTarget<Elem<Self>, Mask = Mask<Self>>;
    type Snap: Snap;
    fn handle(&self) -> &Handle<Self::Store>;
    fn shape(&self) -> <Self::Store as Stored>::Key;
    fn value(store: Arc<Self::Store>) -> Arc<Self::Value>;
    fn store(value: Self::Value) -> Self::Store;
}

type Elem<O> = <<O as Output>::Store as Stored>::Elem;
type Mask<O> = <<O as Output>::Snap as Snap>::Mask;

impl<T: Scalar> Output for Matrix<T> {
    type Store = MatrixStore<T>;
    type Value = Csr<T>;
    type Snap = MaskSnap2;
    fn handle(&self) -> &Handle<MatrixStore<T>> {
        &self.handle
    }
    fn shape(&self) -> (Index, Index) {
        Matrix::shape(self)
    }
    fn value(store: Arc<MatrixStore<T>>) -> Arc<Csr<T>> {
        store.row_csr()
    }
    fn store(value: Csr<T>) -> MatrixStore<T> {
        MatrixStore::csr(value)
    }
}

impl<T: Scalar> Output for Vector<T> {
    type Store = SparseVec<T>;
    type Value = SparseVec<T>;
    type Snap = MaskSnap1;
    fn handle(&self) -> &Handle<SparseVec<T>> {
        &self.handle
    }
    fn shape(&self) -> Index {
        self.size()
    }
    fn value(store: Arc<SparseVec<T>>) -> Arc<SparseVec<T>> {
        store
    }
    fn store(value: SparseVec<T>) -> SparseVec<T> {
        value
    }
}

/// A mask argument for an output `O`: a [`MatrixMask`] for a matrix, a
/// [`VectorMask`] for a vector.
trait MaskFor<O: Output> {
    fn check_dims(&self, out: &O) -> Result<()>;
    fn snapshot(&self, desc: &Descriptor) -> O::Snap;
}

impl<T: Scalar, Mk: MatrixMask> MaskFor<Matrix<T>> for Mk {
    fn check_dims(&self, out: &Matrix<T>) -> Result<()> {
        match (self.mask_dims(), out.shape()) {
            (Some(md), od) => dim_check(md == od, || {
                format!("mask is {}x{} but output is {}x{}", md.0, md.1, od.0, od.1)
            }),
            (None, _) => Ok(()),
        }
    }
    fn snapshot(&self, desc: &Descriptor) -> MaskSnap2 {
        self.snap(desc)
    }
}

impl<T: Scalar, Mk: VectorMask> MaskFor<Vector<T>> for Mk {
    fn check_dims(&self, out: &Vector<T>) -> Result<()> {
        match (self.mask_size(), out.size()) {
            (Some(ms), n) => dim_check(ms == n, || {
                format!("mask has size {ms} but output has size {n}")
            }),
            (None, _) => Ok(()),
        }
    }
    fn snapshot(&self, desc: &Descriptor) -> MaskSnap1 {
        self.snap(desc)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::Accum;
    use crate::algebra::binary::Plus;
    use crate::mask::{MaskCsr, MaskVec};

    fn c_old() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 . ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    }

    fn mask_01_and_11() -> MaskCsr {
        let m = Csr::from_sorted_tuples(2, 3, vec![(0, 1, true), (1, 1, true)]);
        MaskCsr::from_csr(&m, false, false)
    }

    /// `store` as a captured old output: its value and its node.
    fn old<O: Output>(store: O::Store) -> (Arc<O::Value>, Arc<Node<O::Store>>) {
        let node = Node::ready(store);
        (O::value(node.ready_storage().unwrap()), node)
    }

    fn write_m(
        t: Computed<Matrix<i32>>,
        accum: Option<Plus<i32>>,
        mask: &MaskCsr,
        replace: bool,
    ) -> Vec<(Index, Index, i32)> {
        let (c, node) = old::<Matrix<i32>>(MatrixStore::csr(c_old()));
        t.write(c, node, &accum, mask, replace)
            .unwrap()
            .row_csr()
            .to_tuples()
    }

    #[test]
    fn masked_t_with_replace_is_written_as_is() {
        // T already restricted to the mask: replace without accum is T
        let t = Csr::from_sorted_tuples(2, 3, vec![(1, 1, 30)]);
        let r = write_m(Computed::Masked(t.clone()), None, &mask_01_and_11(), true);
        assert_eq!(r, t.to_tuples());
        // merge mode still keeps unmasked old values
        let r = write_m(Computed::Masked(t), None, &mask_01_and_11(), false);
        assert_eq!(r, vec![(0, 0, 1), (1, 1, 30)]);
    }

    #[test]
    fn only_the_identity_writes_skip_the_pass() {
        // (0, 2) lies outside the mask: the pass drops it, a skip keeps it
        let t = Csr::from_sorted_tuples(2, 3, vec![(0, 2, 20), (1, 1, 30)]);
        let m = mask_01_and_11();
        let skipped = t.to_tuples();
        let passed = vec![(1, 1, 30)];
        assert_eq!(
            write_m(Computed::Masked(t.clone()), None, &m, true),
            skipped
        );
        assert_eq!(write_m(Computed::T(t.clone()), None, &m, true), passed);
        assert_eq!(write_m(Computed::Z(t.clone()), None, &m, true), passed);
        assert_eq!(
            write_m(Computed::Masked(t.clone()), Some(Plus::new()), &m, true),
            vec![(0, 1, 2), (1, 1, 33)]
        );
        // unmasked without an accumulator, every kind is written as is
        for computed in [
            Computed::T(t.clone()),
            Computed::Masked(t.clone()),
            Computed::Z(t.clone()),
        ] {
            assert_eq!(write_m(computed, None, &MaskCsr::All, false), skipped);
        }
        // a finished value is never written again
        let done = Computed::Done(MatrixStore::csr(t.clone()));
        assert_eq!(write_m(done, Some(Plus::new()), &m, true), skipped);
        // Z already holds the accumulation: the stage adds no second one
        assert_eq!(
            write_m(Computed::Z(t), Some(Plus::new()), &MaskCsr::All, false),
            skipped
        );
    }

    /// Fig. 3 line 74's shape, `bcu += w .* numsp` into a full n × 32
    /// `bcu`, optionally with a snapshot pinning the old value: whether
    /// `bcu`'s value buffer moved across the accumulate.
    fn line_74_moves_bcu(ctx: &Context, pin: bool) -> bool {
        use crate::prelude::*;
        let (n, k) = (256, 32);
        let bcu = Matrix::<f32>::new(n, k).unwrap();
        let desc = Descriptor::default();
        ctx.assign_scalar_matrix(&bcu, NoMask, NoAccum, 1.0f32, ALL, ALL, &desc)
            .unwrap();
        let w: Vec<_> = (0..n).step_by(3).map(|i| (i, i % k, 0.5f32)).collect();
        let numsp: Vec<_> = (0..n).step_by(2).map(|i| (i, i % k, 2i32)).collect();
        let w = Matrix::from_tuples(n, k, &w).unwrap();
        let numsp = Matrix::from_tuples(n, k, &numsp).unwrap();
        ctx.wait().unwrap();
        let buffer = |m: &Matrix<f32>| {
            let store = m.handle.forced_storage().unwrap();
            store.row_csr().vals().as_ptr() as usize
        };
        let before = buffer(&bcu);
        let snap = pin.then(|| bcu.snapshot());
        let times = binary_fn(|wv: &f32, nv: &i32| wv * *nv as f32);
        ctx.ewise_mult_matrix(&bcu, NoMask, Accum(Plus::new()), times, &w, &numsp, &desc)
            .unwrap();
        ctx.wait().unwrap();
        // (0, 0) is in both operands: 1 + 0.5 * 2
        assert_eq!(bcu.get(0, 0).unwrap(), Some(2.0));
        if let Some(snap) = snap {
            assert_eq!(
                snap.get(0, 0).unwrap(),
                Some(1.0),
                "the snapshot saw the write"
            );
        }
        before != buffer(&bcu)
    }

    #[test]
    fn line_74_accumulates_in_place_unless_the_old_value_is_pinned() {
        for ctx in [Context::blocking(), Context::nonblocking()] {
            assert!(!line_74_moves_bcu(&ctx, false), "{:?}: copied", ctx.mode());
            assert!(
                line_74_moves_bcu(&ctx, true),
                "{:?}: written in place",
                ctx.mode()
            );
        }
    }

    #[test]
    fn masked_vector_t_with_replace_is_written_as_is() {
        let w = SparseVec::from_sorted_parts(4, vec![0, 2], vec![1, 2]);
        let msrc = SparseVec::from_sorted_parts(4, vec![1, 3], vec![true, true]);
        let mask = MaskVec::from_vec(&msrc, false, false);
        let write = |t: SparseVec<i32>, accum: Option<Plus<i32>>, replace| {
            let (c, node) = old::<Vector<i32>>(w.clone());
            Computed::<Vector<i32>>::Masked(t)
                .write(c, node, &accum, &mask, replace)
                .unwrap()
        };
        // T already restricted to the mask: replace without accum is T
        let t = SparseVec::from_sorted_parts(4, vec![1], vec![10]);
        assert_eq!(write(t.clone(), None, true), t);
        // merge mode still keeps unmasked old values
        let r = write(t.clone(), None, false);
        assert_eq!(r.to_tuples(), vec![(0, 1), (1, 10), (2, 2)]);
        // an accumulator takes the full pass: replace clears the
        // unadmitted old values
        let (c, node) = old::<Vector<i32>>(w);
        let r = Computed::<Vector<i32>>::Masked(t)
            .write(c, node, &Accum(Plus::<i32>::new()), &mask, true)
            .unwrap();
        assert_eq!(r.to_tuples(), vec![(1, 10)]);
    }
}
