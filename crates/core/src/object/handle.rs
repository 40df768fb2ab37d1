//! The one object handle under [`Matrix`](crate::object::Matrix) and
//! [`Vector`](crate::object::Vector).
//!
//! The paper (§III-A) defines both collections as the same kind of
//! opaque set of stored tuples, with one or two index dimensions. The
//! concurrent half of that object — the value cell, the pending-update
//! log, the per-epoch overlay memo, MVCC snapshot pins, the background
//! flusher's weak form — is therefore written once, here, over any [`Stored`] value type; the public
//! wrappers add only dimensions, bounds checks and tuple shapes.
//!
//! The object's value lives in an immutable [`Node`]; every mutation
//! swaps in a new node, so deferred operations that captured the old
//! node keep program-order semantics for free. Point mutations append
//! to a [`DeltaLog`] in O(1) amortized time (§IV's deferral latitude).
//! The log is merged into the value by the background auto-flusher
//! ([`crate::storage::snapshot`]) or by a completion-forcing read
//! ([`Handle::resolve`]); kernel input capture and snapshots instead
//! take an epoch-versioned *overlay* over `(base, sealed runs)`, so
//! readers observe pending updates without draining the log and never
//! serialize behind writers.
//!
//! **Lock order.** `delta` before `overlay` before `cell`, always;
//! `policy` is a leaf, never held while another lock is taken. Every
//! method below that takes more than one lock takes them in that order,
//! and this file is the only place any of them is taken.
//!
//! **Memo soundness.** Every path that installs a new base empties the
//! log first (`resolve` drains, whole-output writes `discard_pending`,
//! `clear` clears), and the log's epoch is strictly monotone, so
//! `(epoch, log non-empty)` uniquely identifies the `(base, runs)` pair
//! a memo entry was built from: a memo hit at the current epoch is
//! always the merge of the current base with the current runs.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::error::Result;
use crate::exec::node::StorageMeta;
use crate::exec::{force, Completable, Node};
use crate::index::Index;
use crate::kernel::merge;
use crate::scalar::Scalar;
use crate::storage::delta::{DeltaLog, DeltaOp, DeltaStats, Run};
use crate::storage::engine::{FormatPolicy, MatrixStore};
use crate::storage::snapshot::{self, Snapshot};
use crate::storage::vec::SparseVec;

/// A value type a [`Handle`] can hold: what the delta log is keyed by,
/// what it stores, and how pending runs are merged into it.
pub(crate) trait Stored: StorageMeta + Send + Sync + Sized + 'static {
    /// Delta-log key, in the store's sort order: `(row, col)` for
    /// matrices, the index for vectors. A collection's *shape* is the
    /// exclusive upper bound of its keys, so it has the same type.
    type Key: Copy + Ord + Send + Sync + 'static;
    /// Element domain.
    type Elem: Scalar;
    /// Per-object storage hint applied to computed values:
    /// [`FormatPolicy`] for matrices, nothing for vectors.
    type Policy: Copy + Send + Sync + 'static;

    /// A value of the given shape with no stored elements.
    fn empty(shape: Self::Key) -> Self;
    /// The stored element at `key`, if any.
    fn get(&self, key: Self::Key) -> Option<&Self::Elem>;
    /// This value with `runs` (oldest first) applied, stored under
    /// `policy`. Pool-parallel under the kernel cost model and
    /// bitwise-deterministic at any degree.
    fn merge(&self, runs: &[Run<Self::Key, Self::Elem>], policy: Self::Policy) -> Self;
    /// Re-store a freshly computed value under `policy` — the one
    /// completion-time migration of an operation's output.
    fn restore(self, _policy: Self::Policy) -> Self {
        self
    }
}

impl<T: Scalar> Stored for MatrixStore<T> {
    type Key = (Index, Index);
    type Elem = T;
    type Policy = FormatPolicy;

    fn empty((nrows, ncols): (Index, Index)) -> Self {
        MatrixStore::empty(nrows, ncols)
    }
    fn get(&self, (i, j): (Index, Index)) -> Option<&T> {
        MatrixStore::get(self, i, j)
    }
    fn merge(&self, runs: &[Run<(Index, Index), T>], policy: FormatPolicy) -> Self {
        merge::merge_into_store(self, runs, policy)
    }
    fn restore(self, policy: FormatPolicy) -> Self {
        self.apply_policy(policy)
    }
}

impl<T: Scalar> Stored for SparseVec<T> {
    type Key = Index;
    type Elem = T;
    type Policy = ();

    fn empty(n: Index) -> Self {
        SparseVec::empty(n)
    }
    fn get(&self, i: Index) -> Option<&T> {
        SparseVec::get(self, i)
    }
    fn merge(&self, runs: &[Run<Index, T>], (): ()) -> Self {
        merge::merge_vector(self, runs)
    }
}

/// Everything handle clones share; the background flusher holds it
/// weakly.
struct Shared<S: Stored> {
    /// The current value node, pending point updates excluded.
    cell: RwLock<Arc<Node<S>>>,
    policy: RwLock<S::Policy>,
    /// Pending point mutations not yet merged into the value node.
    delta: Mutex<DeltaLog<S::Key, S::Elem>>,
    /// The current epoch's overlay node: every reader (snapshot or
    /// kernel capture) at one epoch shares one deferred merge.
    overlay: Mutex<Option<(u64, Arc<Node<S>>)>>,
}

/// A handle on one object; clones alias it, like copying a
/// `GrB_Matrix` in C.
pub(crate) struct Handle<S: Stored>(Arc<Shared<S>>);

impl<S: Stored> Clone for Handle<S> {
    fn clone(&self) -> Self {
        Handle(self.0.clone())
    }
}

impl<S: Stored> Handle<S> {
    /// A new object whose value is `node`, with no pending updates.
    pub(crate) fn new(node: Arc<Node<S>>, policy: S::Policy) -> Self {
        Handle(Arc::new(Shared {
            cell: RwLock::new(node),
            policy: RwLock::new(policy),
            delta: Mutex::new(DeltaLog::new()),
            overlay: Mutex::new(None),
        }))
    }

    pub(crate) fn policy(&self) -> S::Policy {
        *self.0.policy.read()
    }

    pub(crate) fn set_policy(&self, policy: S::Policy) {
        *self.0.policy.write() = policy;
    }

    /// Append one point mutation to the pending-update log and, when the
    /// time/size window says so, queue a background flush.
    pub(crate) fn push(&self, key: S::Key, op: DeltaOp<S::Elem>) {
        let due = {
            let mut delta = self.0.delta.lock();
            delta.push(key, op);
            delta.autoflush_due(snapshot::flush_window())
        };
        if let Some(delay) = due {
            self.schedule_background_flush(delay);
        }
    }

    /// Replace the value with an empty one of `shape`. Never fails and
    /// never forces — the old value, complete or not, and any pending
    /// point updates are simply abandoned.
    pub(crate) fn clear(&self, shape: S::Key) {
        let mut delta = self.0.delta.lock();
        delta.clear();
        *self.0.overlay.lock() = None;
        self.install(Node::ready(S::empty(shape).restore(self.policy())));
    }

    /// A new object with a copy of this object's current (possibly still
    /// deferred) value and policy. Snapshot-cheap even with pending
    /// updates: the copy shares the base node and sealed runs through
    /// the epoch's overlay node — this log is *not* drained, and the
    /// overlay merge runs only when one side observes the value.
    pub(crate) fn dup(&self) -> Self {
        Self::new(self.capture(), self.policy())
    }

    /// An O(1) immutable view of the value at the current epoch: the
    /// base node plus Arc clones of the sealed runs. Never drains the
    /// log, and is unaffected by every later write, flush or compaction.
    pub(crate) fn snapshot(&self) -> Snapshot<S> {
        let (epoch, base, runs, node) = self.overlay_parts();
        Snapshot::new(epoch, base, runs, node, self.policy())
    }

    pub(crate) fn delta_stats(&self) -> DeltaStats {
        self.0.delta.lock().stats()
    }

    /// Force completion of this object alone, merging pending updates
    /// and surfacing any execution error of its defining computation.
    pub(crate) fn wait(&self) -> Result<()> {
        force(&(self.resolve() as Arc<dyn Completable>))
    }

    /// `true` once the value is computed and stored with no pending
    /// point updates.
    pub(crate) fn is_complete(&self) -> bool {
        self.0.delta.lock().is_empty() && self.current_node().is_complete()
    }

    /// The current node (a point-in-time view: later swaps don't affect
    /// it). Does NOT include pending point updates — value observers use
    /// [`Handle::resolve`] or [`Handle::capture`] instead.
    fn current_node(&self) -> Arc<Node<S>> {
        self.0.cell.read().clone()
    }

    /// What a reader at the current epoch sees: `(epoch, base, sealed
    /// runs, overlay node)`. With no pending updates the overlay *is*
    /// the base. Otherwise it is a deferred `overlay` DAG node merging
    /// `(base, runs)` under the object's policy, memoized per epoch so
    /// every same-epoch reader shares one merge (see the module docs for
    /// why the memo is sound). Nothing is drained: the log keeps its
    /// entries and writers keep appending.
    #[allow(clippy::type_complexity)]
    fn overlay_parts(&self) -> (u64, Arc<Node<S>>, Vec<Run<S::Key, S::Elem>>, Arc<Node<S>>) {
        let mut delta = self.0.delta.lock();
        let base = self.current_node();
        let epoch = delta.epoch();
        if delta.is_empty() {
            return (epoch, base.clone(), Vec::new(), base);
        }
        let runs = delta.runs_snapshot();
        let mut memo = self.0.overlay.lock();
        if let Some((e, node)) = memo.as_ref() {
            if *e == epoch {
                return (epoch, base, runs, node.clone());
            }
        }
        let node = self.merge_node("overlay", base.clone(), runs.clone());
        *memo = Some((epoch, node.clone()));
        (epoch, base, runs, node)
    }

    /// A deferred DAG node merging `runs` into `base` under the object's
    /// policy. It depends on `base`, so scheduling, tracing and §V
    /// program-order error semantics all apply.
    fn merge_node(
        &self,
        kind: &'static str,
        base: Arc<Node<S>>,
        runs: Vec<Run<S::Key, S::Elem>>,
    ) -> Arc<Node<S>> {
        let policy = self.policy();
        Node::pending_kind(
            kind,
            vec![base.clone() as Arc<dyn Completable>],
            Box::new(move || Ok(base.ready_storage()?.merge(&runs, policy))),
        )
    }

    /// The node a kernel should capture as this object's input value:
    /// the current node when no updates are pending, else the epoch's
    /// shared overlay node. Unlike [`Handle::resolve`], capture leaves
    /// the log intact — an operation reading this object never blocks,
    /// or is blocked by, a concurrent writer's flush.
    pub(crate) fn capture(&self) -> Arc<Node<S>> {
        self.overlay_parts().3
    }

    /// The current node *including* pending point updates, with the log
    /// drained: if the log is non-empty, install a deferred `flush` node
    /// merging it into the base and return it. Completion-forcing reads
    /// and the background flusher come through here. If the epoch's
    /// overlay node already exists (a reader got here first) it is
    /// adopted and installed instead — the same pending set is never
    /// merged twice.
    pub(crate) fn resolve(&self) -> Arc<Node<S>> {
        let mut delta = self.0.delta.lock();
        if delta.is_empty() {
            return self.current_node();
        }
        let epoch = delta.epoch();
        let runs = delta.drain();
        let node = match self.0.overlay.lock().take() {
            Some((e, node)) if e == epoch => node,
            _ => self.merge_node("flush", self.current_node(), runs),
        };
        self.install(node.clone());
        node
    }

    /// Queue a background flush of the pending updates after `delay`.
    /// The job holds only the weak form: if every handle is dropped
    /// before it fires it is a no-op (pending updates die with the
    /// object, as program order allows).
    fn schedule_background_flush(&self, delay: Duration) {
        let weak = Arc::downgrade(&self.0);
        snapshot::schedule_flush(
            delay,
            Box::new(move || {
                if let Some(shared) = weak.upgrade() {
                    Handle(shared).flush_now();
                }
            }),
        );
    }

    /// Flush pending updates into the value now (the background
    /// flusher's entry point). Execution errors are left on the node —
    /// they surface, in program order, on the next read that forces it.
    fn flush_now(&self) {
        {
            let mut delta = self.0.delta.lock();
            // Re-arm first: pushes racing with this flush queue the next.
            delta.clear_flush_scheduled();
            if delta.is_empty() {
                return;
            }
        }
        let _ = self.wait();
        snapshot::note_background_flush();
    }

    /// Drop any pending point updates: the caller is about to overwrite
    /// this object's whole value (an operation writing the output), so
    /// the buffered updates are dead by program order.
    pub(crate) fn discard_pending(&self) {
        self.0.delta.lock().clear();
        *self.0.overlay.lock() = None;
    }

    /// Publish a new value node for this object.
    pub(crate) fn install(&self, node: Arc<Node<S>>) {
        *self.0.cell.write() = node;
    }

    /// Force and read the current value (pending updates merged).
    pub(crate) fn forced_storage(&self) -> Result<Arc<S>> {
        let node = self.resolve();
        force(&(node.clone() as Arc<dyn Completable>))?;
        node.ready_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn vec_handle() -> Handle<SparseVec<i32>> {
        Handle::new(Node::ready(SparseVec::empty(4)), ())
    }

    /// Block until the flusher has run every job queued before this call
    /// (it runs them in queue order on one thread).
    fn drain_flusher() {
        let (tx, rx) = mpsc::channel();
        snapshot::schedule_flush(
            Duration::ZERO,
            Box::new(move || tx.send(()).expect("test is waiting")),
        );
        rx.recv().expect("flusher ran the sentinel");
    }

    #[test]
    fn queued_flush_is_a_noop_once_every_handle_is_dropped() {
        let h = vec_handle();
        h.push(1, DeltaOp::Put(5));
        let alias = h.clone();
        let weak = Arc::downgrade(&h.0);
        h.schedule_background_flush(Duration::ZERO);
        drop(h);
        drop(alias);
        assert!(
            weak.upgrade().is_none(),
            "the queued job must not keep the object alive"
        );
        drain_flusher();
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn queued_flush_merges_a_live_object() {
        let h = vec_handle();
        h.push(1, DeltaOp::Put(5));
        h.schedule_background_flush(Duration::ZERO);
        drain_flusher();
        assert!(h.is_complete(), "the flusher drained and forced the log");
        assert_eq!(h.forced_storage().unwrap().get(1), Some(&5));
    }

    #[test]
    fn resolve_adopts_the_epochs_overlay_node() {
        let h = vec_handle();
        h.push(2, DeltaOp::Put(7));
        let overlay = h.capture();
        assert!(Arc::ptr_eq(&overlay, &h.capture()), "memoized per epoch");
        assert!(Arc::ptr_eq(&overlay, &h.resolve()), "never merged twice");
        assert_eq!(h.delta_stats().pending_len, 0);
    }
}
