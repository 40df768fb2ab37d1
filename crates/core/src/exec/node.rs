//! Deferred-evaluation nodes and the forcing engine.
//!
//! In nonblocking mode (paper §IV) an operation installs a *pending node*
//! holding a thunk and its dependency snapshots instead of computing
//! immediately. Nodes are immutable once complete and never mutated in
//! place — a handle swap publishes each new value — so the pending graph
//! is an acyclic persistent DAG and program-order semantics fall out of
//! snapshotting. A value is reused in place only after its node is gone:
//! [`Node::take_storage`] hands it to the one writer that held the last
//! reference.
//!
//! [`force`] completes a node with an **iterative** topological walk: a
//! BFS-style algorithm can defer a chain whose length is the graph
//! diameter (O(n) on a path), which would overflow the stack if forced
//! recursively.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::exec::trace::TraceMeta;

/// Shape/occupancy reporting for node storage types, consumed by the
/// execution trace (`exec::trace`).
pub(crate) trait StorageMeta {
    /// `(rows, cols)`; vectors report `(size, 1)`.
    fn trace_shape(&self) -> (usize, usize);
    /// Number of stored elements.
    fn trace_nvals(&self) -> usize;
    /// Storage-format tag for the trace; matrix stores report their
    /// engine layout, everything else the generic `"sparse"`.
    fn trace_format(&self) -> &'static str {
        "sparse"
    }
}

/// Type-erased interface to a node of the deferred DAG (implemented by
/// `MatrixNode<T>` and `VectorNode<T>` for every `T`).
#[doc(hidden)]
pub trait Completable: Send + Sync {
    /// `true` once the node holds a value or a failure.
    fn is_complete(&self) -> bool;
    /// Dependency snapshots of a pending node (empty once complete).
    fn dep_nodes(&self) -> Vec<Arc<dyn Completable>>;
    /// Evaluate the thunk. All dependencies must already be complete.
    /// Stores the value or the failure; a panicking operator is stored
    /// as `Error::Panic` (§V's `GrB_PANIC`), never unwound into the
    /// caller.
    fn compute(&self);
    /// The failure, if the node completed with an error.
    fn failure(&self) -> Option<Error>;
    /// Operation kind plus dims/nvals (dims reported once complete), for
    /// the execution trace.
    fn trace_meta(&self) -> TraceMeta;
}

/// The state machine shared by matrix and vector nodes. `S` is the
/// storage type (`Csr<T>` / `SparseVec<T>`).
pub(crate) enum NodeState<S> {
    /// Deferred: thunk + the nodes it reads.
    Pending {
        deps: Vec<Arc<dyn Completable>>,
        eval: Box<dyn FnOnce() -> Result<S> + Send>,
    },
    /// Complete with a value.
    Ready(Arc<S>),
    /// Complete with an execution error; consumers see `InvalidObject`.
    Failed(Error),
}

/// Generic node: storage state plus the erased `Completable` face.
pub(crate) struct Node<S> {
    /// Operation kind that defined this node (Table II name, or
    /// `"value"` for nodes born complete) — shown in execution traces.
    kind: &'static str,
    /// A `"flush"` node the background flusher drained the log into.
    by_flusher: bool,
    state: Mutex<NodeState<S>>,
}

impl<S: Send + Sync + 'static> Node<S> {
    pub(crate) fn ready(value: S) -> Arc<Self> {
        Arc::new(Node {
            kind: "value",
            by_flusher: false,
            state: Mutex::new(NodeState::Ready(Arc::new(value))),
        })
    }

    /// Pending node with the generic `"op"` kind — operations go through
    /// [`Node::pending_kind`] with their Table II name; this shorthand
    /// serves the engine's own tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending(
        deps: Vec<Arc<dyn Completable>>,
        eval: Box<dyn FnOnce() -> Result<S> + Send>,
    ) -> Arc<Self> {
        Self::pending_kind("op", deps, eval)
    }

    pub(crate) fn pending_kind(
        kind: &'static str,
        deps: Vec<Arc<dyn Completable>>,
        eval: Box<dyn FnOnce() -> Result<S> + Send>,
    ) -> Arc<Self> {
        Self::pending_merge(kind, false, deps, eval)
    }

    /// A pending node merging pending updates into storage: `"overlay"`
    /// or `"flush"`, the latter marked when the background flusher
    /// drained the log into it.
    pub(crate) fn pending_merge(
        kind: &'static str,
        by_flusher: bool,
        deps: Vec<Arc<dyn Completable>>,
        eval: Box<dyn FnOnce() -> Result<S> + Send>,
    ) -> Arc<Self> {
        Arc::new(Node {
            kind,
            by_flusher,
            state: Mutex::new(NodeState::Pending { deps, eval }),
        })
    }

    /// The storage of a *complete* node, releasing this reference to the
    /// node first: when it was the last, `Arc::try_unwrap` on the result
    /// decides atomically whether anyone else (a snapshot, a `dup`, a
    /// pending consumer, a `Weak` upgraded in time) can still read it.
    pub(crate) fn take_storage(self: Arc<Self>) -> Result<Arc<S>> {
        let storage = self.ready_storage();
        drop(self);
        storage
    }

    /// The storage of a *complete* node. `Pending` here is an engine bug;
    /// a failed node surfaces as [`invalidated`].
    pub(crate) fn ready_storage(&self) -> Result<Arc<S>> {
        match &*self.state.lock() {
            NodeState::Ready(s) => Ok(s.clone()),
            NodeState::Failed(e) => Err(invalidated(e)),
            NodeState::Pending { .. } => Err(Error::Panic(
                "internal: read of a pending node (forcing engine bug)".into(),
            )),
        }
    }
}

impl<S: StorageMeta + Send + Sync + 'static> Completable for Node<S> {
    fn is_complete(&self) -> bool {
        !matches!(&*self.state.lock(), NodeState::Pending { .. })
    }

    fn dep_nodes(&self) -> Vec<Arc<dyn Completable>> {
        match &*self.state.lock() {
            NodeState::Pending { deps, .. } => deps.clone(),
            _ => Vec::new(),
        }
    }

    fn compute(&self) {
        let mut guard = self.state.lock();
        if let NodeState::Pending { .. } = &*guard {
            let taken = std::mem::replace(
                &mut *guard,
                NodeState::Failed(Error::Panic("internal: node mid-compute".into())),
            );
            let NodeState::Pending { deps, eval } = taken else {
                unreachable!()
            };
            drop(deps); // or an old value `eval` takes over stays shared
            *guard = match catch_panic(eval) {
                Ok(s) => NodeState::Ready(Arc::new(s)),
                Err(e) => NodeState::Failed(e),
            };
        }
    }

    fn failure(&self) -> Option<Error> {
        match &*self.state.lock() {
            NodeState::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }

    fn trace_meta(&self) -> TraceMeta {
        let (shape, nvals, format) = match &*self.state.lock() {
            NodeState::Ready(s) => (s.trace_shape(), s.trace_nvals(), s.trace_format()),
            _ => ((0, 0), 0, "sparse"),
        };
        TraceMeta {
            kind: self.kind,
            by_flusher: self.by_flusher,
            rows: shape.0,
            cols: shape.1,
            nvals,
            format,
        }
    }
}

/// What a read of a failed node returns: `InvalidObject` (paper §V: "at
/// least one of the argument objects is in an invalid state — caused by
/// a previous execution error"). The wrapping is idempotent — an
/// already-invalid object propagates unchanged — so the reported message
/// names the root cause regardless of how many invalidated consumers sit
/// between it and the observation point. That depth is
/// schedule-dependent; the root cause is not.
pub(crate) fn invalidated(failure: &Error) -> Error {
    match failure {
        Error::InvalidObject(_) => failure.clone(),
        e => Error::InvalidObject(format!(
            "object invalidated by a previous execution error: {e}"
        )),
    }
}

/// Run `f`, reporting a panic as `Error::Panic` carrying its message
/// (§V: `GrB_PANIC`, an unrecoverable error inside the library) instead
/// of unwinding into the caller. A user-defined operator can panic; a
/// pooled kernel chunk that panicked is re-raised on the thread that
/// submitted it, so it lands here too.
pub(crate) fn catch_panic<R>(f: impl FnOnce() -> Result<R>) -> Result<R> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "operator panicked".into());
        Err(Error::Panic(msg))
    })
}

/// Complete a node (and its pending cone) with an iterative topological
/// walk. Returns the node's failure, if any.
///
/// Used by blocking mode (single fresh node per call), by per-object
/// forcing (`GrB_*_wait`, `nvals`, …) and by `Context::wait`, which
/// forces each sequence root in program order.
///
/// Safe to race: another thread forcing an overlapping cone only makes
/// some `compute()` calls here no-ops, because a node computes under its
/// own lock and a complete node never recomputes.
pub(crate) fn force(root: &Arc<dyn Completable>) -> Result<()> {
    force_with(root, &mut |node| node.compute())
}

/// [`force`], completing each node of the cone through `compute` — the
/// hook a traced `wait()` uses to record one event per node.
pub(crate) fn force_with(
    root: &Arc<dyn Completable>,
    compute: &mut dyn FnMut(&Arc<dyn Completable>),
) -> Result<()> {
    if !root.is_complete() {
        // Expanded-set dedup: in a DAG an intermediate shared by several
        // pending consumers is reached once per in-edge; without the set
        // each arrival re-pushes its (shared) dependency cone, walking
        // the same region once per consumer. Identity is the node's
        // allocation address (data half of the fat pointer).
        let mut expanded_set: std::collections::HashSet<*const u8> =
            std::collections::HashSet::new();
        // (node, children_expanded)
        let mut stack: Vec<(Arc<dyn Completable>, bool)> = vec![(root.clone(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if node.is_complete() {
                continue;
            }
            if expanded {
                compute(&node);
            } else {
                if !expanded_set.insert(Arc::as_ptr(&node) as *const u8) {
                    continue;
                }
                let deps = node.dep_nodes();
                stack.push((node, true));
                for d in deps {
                    if !d.is_complete() {
                        stack.push((d, false));
                    }
                }
            }
        }
    }
    match root.failure() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Plain scalars stand in for storage in the engine's own tests.
#[cfg(test)]
mod test_storage_meta {
    macro_rules! impl_test_meta {
        ($($t:ty),*) => {$(
            impl super::StorageMeta for $t {
                fn trace_shape(&self) -> (usize, usize) {
                    (1, 1)
                }
                fn trace_nvals(&self) -> usize {
                    1
                }
            }
        )*};
    }
    impl_test_meta!(i32, i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_completable<S: StorageMeta + Send + Sync + 'static>(
        n: &Arc<Node<S>>,
    ) -> Arc<dyn Completable> {
        n.clone() as Arc<dyn Completable>
    }

    #[test]
    fn ready_node_is_complete() {
        let n = Node::ready(42i32);
        assert!(n.is_complete());
        assert_eq!(*n.ready_storage().unwrap(), 42);
        assert!(n.failure().is_none());
    }

    #[test]
    fn pending_node_computes_on_force() {
        let n = Node::pending(vec![], Box::new(|| Ok(7i32)));
        assert!(!n.is_complete());
        force(&as_completable(&n)).unwrap();
        assert_eq!(*n.ready_storage().unwrap(), 7);
    }

    #[test]
    fn failure_propagates_as_invalid_object() {
        let bad: Arc<Node<i32>> =
            Node::pending(vec![], Box::new(|| Err(Error::Arithmetic("boom".into()))));
        let bad_dep = bad.clone();
        let dependent: Arc<Node<i32>> = Node::pending(
            vec![as_completable(&bad)],
            Box::new(move || bad_dep.ready_storage().map(|v| *v + 1)),
        );
        let err = force(&as_completable(&dependent)).unwrap_err();
        assert!(matches!(err, Error::InvalidObject(_)));
        // the root cause is preserved on the failing node itself
        assert!(matches!(bad.failure(), Some(Error::Arithmetic(_))));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // a 100k-deep chain would blow a recursive evaluator
        let mut prev: Arc<Node<i64>> = Node::ready(0);
        for _ in 0..100_000 {
            let p = prev.clone();
            prev = Node::pending(
                vec![as_completable(&prev)],
                Box::new(move || p.ready_storage().map(|v| *v + 1)),
            );
        }
        force(&as_completable(&prev)).unwrap();
        assert_eq!(*prev.ready_storage().unwrap(), 100_000);
    }

    #[test]
    fn diamond_dependencies_computed_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let base: Arc<Node<i32>> = Node::pending(
            vec![],
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(10)
            }),
        );
        let (b1, b2) = (base.clone(), base.clone());
        let left: Arc<Node<i32>> = Node::pending(
            vec![as_completable(&base)],
            Box::new(move || b1.ready_storage().map(|v| *v + 1)),
        );
        let right: Arc<Node<i32>> = Node::pending(
            vec![as_completable(&base)],
            Box::new(move || b2.ready_storage().map(|v| *v + 2)),
        );
        let (l, r) = (left.clone(), right.clone());
        let top: Arc<Node<i32>> = Node::pending(
            vec![as_completable(&left), as_completable(&right)],
            Box::new(move || Ok(*l.ready_storage()? + *r.ready_storage()?)),
        );
        force(&as_completable(&top)).unwrap();
        assert_eq!(*top.ready_storage().unwrap(), 23);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_eval_fails_the_node_with_panic() {
        let bad: Arc<Node<i32>> = Node::pending(vec![], Box::new(|| panic!("operator blew up")));
        let bad_dep = bad.clone();
        let dependent: Arc<Node<i32>> = Node::pending(
            vec![as_completable(&bad)],
            Box::new(move || bad_dep.ready_storage().map(|v| *v + 1)),
        );
        let err = force(&as_completable(&dependent)).unwrap_err();
        assert!(matches!(err, Error::InvalidObject(_)));
        match bad.failure() {
            Some(Error::Panic(m)) => assert!(m.contains("operator blew up"), "{m}"),
            other => panic!("expected Error::Panic, got {other:?}"),
        }
        // the engine is still usable afterwards
        let ok = Node::pending(vec![], Box::new(|| Ok(3i32)));
        force(&as_completable(&ok)).unwrap();
        assert_eq!(*ok.ready_storage().unwrap(), 3);
    }

    #[test]
    fn compute_frees_the_dependency_edges_before_eval() {
        let dep: Arc<Node<i32>> = Node::ready(1);
        let weak = Arc::downgrade(&dep);
        let n: Arc<Node<i32>> = Node::pending(
            vec![as_completable(&dep)],
            Box::new(move || Ok(i32::from(weak.upgrade().is_some()))),
        );
        drop(dep);
        force(&as_completable(&n)).unwrap();
        assert_eq!(
            *n.ready_storage().unwrap(),
            0,
            "the pending node's own dependency edge kept its input alive through eval"
        );
    }

    #[test]
    fn force_is_idempotent() {
        let n = Node::pending(vec![], Box::new(|| Ok(1i32)));
        let c = as_completable(&n);
        force(&c).unwrap();
        force(&c).unwrap();
        assert_eq!(*n.ready_storage().unwrap(), 1);
    }
}
