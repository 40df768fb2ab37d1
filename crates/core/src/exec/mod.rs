//! The GraphBLAS execution model (paper, Section IV) and error model
//! (Section V).
//!
//! A [`Context`] fixes the execution **mode** for the method sequence run
//! through it:
//!
//! * **Blocking** — every operation completes before its call returns;
//!   output objects are fully computed and stored.
//! * **Nonblocking** — operations verify their arguments (API errors are
//!   still reported eagerly) and may *defer* execution. Deferred outputs
//!   complete when [`Context::wait`] terminates the sequence, or when a
//!   method that exports values to non-opaque data (`nvals`,
//!   `extract_tuples`, `get`, scalar `reduce`, …) forces them. Execution
//!   errors from deferred work surface at those points; an object whose
//!   defining computation failed is *invalid* and poisons its consumers
//!   with `InvalidObject`.
//!
//! Where the C API fixes one process-global mode at `GrB_init`, contexts
//! here are explicit values — a deliberate binding change (see DESIGN.md)
//! that keeps both modes testable in one process; the `graphblas-capi`
//! crate layers the global lifecycle on top.

pub(crate) mod node;
pub mod sched;

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::error::{Error, Result};
#[doc(hidden)]
pub use node::Completable;
pub(crate) use node::{catch_panic, force, Node};
pub use sched::{pool_status, PoolStatus, SchedPolicy, TraceEvent};

/// The one fusion policy: the pending DAG executes as written. Kept,
/// with [`Context::with_fuse_policy`], only for the benchmark harness's
/// `core.exec` probe, which still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusePolicy {
    /// Execute the DAG exactly as written.
    Off,
}

/// Execution mode of a context (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Each method completes before returning.
    Blocking,
    /// Methods may defer; `wait()` terminates the sequence.
    Nonblocking,
}

struct CtxInner {
    mode: Mode,
    /// How `wait()` drains the pending DAG (nonblocking mode only).
    policy: SchedPolicy,
    /// Deferred outputs of the current sequence, in program order. Weak:
    /// an intermediate dropped unobserved is simply never computed (the
    /// "lazy evaluation" latitude of §IV).
    sequence: Mutex<Vec<Weak<dyn Completable>>>,
    /// `GrB_error()`: detail text of the most recent execution error.
    last_error: Mutex<Option<String>>,
    /// Test hook: the next submitted operation fails with this error.
    injected: Mutex<Option<Error>>,
    /// Execution tracing: when enabled, each `wait()` appends one event
    /// per scheduled node; drained by `take_trace`.
    tracing: std::sync::atomic::AtomicBool,
    trace: Mutex<Vec<TraceEvent>>,
}

/// A GraphBLAS execution context: the binding's rendering of the state
/// established by `GrB_init(mode)`.
///
/// All Table II operations are methods on `Context` (`ctx.mxm(…)`,
/// `ctx.ewise_add_matrix(…)`, …; see [`crate::op`]).
#[derive(Clone)]
pub struct Context {
    inner: Arc<CtxInner>,
}

impl Context {
    /// Create a context in the given mode, with the default scheduling
    /// policy (Parallel when the `parallel` feature is on).
    pub fn new(mode: Mode) -> Self {
        Context::with_policy(mode, SchedPolicy::default())
    }

    /// Create a context with an explicit scheduling policy for `wait()`.
    /// The policy only matters in nonblocking mode; blocking mode
    /// completes each operation inline as before.
    pub fn with_policy(mode: Mode, policy: SchedPolicy) -> Self {
        Context {
            inner: Arc::new(CtxInner {
                mode,
                policy,
                sequence: Mutex::new(Vec::new()),
                last_error: Mutex::new(None),
                injected: Mutex::new(None),
                tracing: std::sync::atomic::AtomicBool::new(false),
                trace: Mutex::new(Vec::new()),
            }),
        }
    }

    /// [`Context::with_policy`]; the only [`FusePolicy`] runs the DAG as
    /// written. Kept only for the benchmark harness's `core.exec` probe.
    pub fn with_fuse_policy(mode: Mode, policy: SchedPolicy, _fuse: FusePolicy) -> Self {
        Context::with_policy(mode, policy)
    }

    /// `GrB_init(GrB_BLOCKING)`.
    pub fn blocking() -> Self {
        Context::new(Mode::Blocking)
    }

    /// `GrB_init(GrB_NONBLOCKING)`.
    pub fn nonblocking() -> Self {
        Context::new(Mode::Nonblocking)
    }

    /// Nonblocking mode with the sequential FIFO driver — the
    /// pre-scheduler engine's observable behavior.
    pub fn nonblocking_sequential() -> Self {
        Context::with_policy(Mode::Nonblocking, SchedPolicy::Sequential)
    }

    /// Nonblocking mode with the worker-pool driver (degrades to
    /// sequential without the `parallel` feature).
    pub fn nonblocking_parallel() -> Self {
        Context::with_policy(Mode::Nonblocking, SchedPolicy::Parallel)
    }

    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// The scheduling policy `wait()` uses.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.inner.policy
    }

    /// Enable or disable execution tracing. While enabled, each
    /// `wait()` appends one [`TraceEvent`] per node the scheduler
    /// completes; collect them with [`Context::take_trace`].
    pub fn enable_trace(&self, on: bool) {
        self.inner
            .tracing
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drain the accumulated execution trace.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.inner.trace.lock())
    }

    /// `GrB_wait()`: terminate the current sequence, completing every
    /// deferred output. Execution runs through the [`sched`] scheduler
    /// under this context's [`SchedPolicy`]; error reporting is
    /// schedule-independent — the roots are scanned in program order
    /// afterwards, so the error returned is the *first in program
    /// order* (later outputs are still completed and carry their own
    /// failure states, poisoning their consumers per §V).
    pub fn wait(&self) -> Result<()> {
        let pending: Vec<Weak<dyn Completable>> = std::mem::take(&mut *self.inner.sequence.lock());
        let roots: Vec<Arc<dyn Completable>> = pending.iter().filter_map(Weak::upgrade).collect();
        if roots.is_empty() {
            return Ok(());
        }
        let sink = self
            .inner
            .tracing
            .load(std::sync::atomic::Ordering::Relaxed)
            .then(sched::TraceSink::new);
        sched::execute(&roots, self.inner.policy, sink.as_ref());
        if let Some(sink) = sink {
            self.inner.trace.lock().extend(sink.into_events());
        }
        let mut first_err: Option<Error> = None;
        for root in &roots {
            if let Some(e) = root.failure() {
                self.record_error(&e);
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// `GrB_error()`: detail text for the most recent execution error
    /// observed through this context, if any.
    pub fn error(&self) -> Option<String> {
        self.inner.last_error.lock().clone()
    }

    /// Record the detail text of an *API* error (one returned directly
    /// from the method call rather than surfacing at execution time).
    /// §V's `GrB_error()` elaborates on "the error code returned by the
    /// last method" without distinguishing the two classes, so a facade
    /// that reports an API error to its caller should record it here
    /// too; the typed layer leaves API errors to its `Result`s.
    pub fn record_api_error(&self, e: &Error) {
        self.record_error(e);
    }

    /// Number of deferred, not-yet-completed operations in the current
    /// sequence (0 in blocking mode). Diagnostic; used by the execution
    /// model tests and benches.
    pub fn pending_ops(&self) -> usize {
        self.inner
            .sequence
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some_and(|n| !n.is_complete()))
            .count()
    }

    /// Test hook: make the next submitted operation fail with `e` at
    /// execution time (an injectable execution error, for exercising the
    /// §V error paths).
    pub fn inject_fault(&self, e: Error) {
        *self.inner.injected.lock() = Some(e);
    }

    pub(crate) fn take_fault(&self) -> Option<Error> {
        self.inner.injected.lock().take()
    }

    /// Whether a test fault is armed for the next submitted operation.
    /// Fast paths that bypass submission (e.g. 1-element scalar assign
    /// becoming a deferred point update) must stand aside so the fault
    /// lands on a real submission.
    pub(crate) fn has_fault(&self) -> bool {
        self.inner.injected.lock().is_some()
    }

    pub(crate) fn record_error(&self, e: &Error) {
        *self.inner.last_error.lock() = Some(e.to_string());
    }

    /// Run or defer a freshly installed output node according to the
    /// mode. Shared tail of every operation.
    pub(crate) fn finish_op(&self, node: Arc<dyn Completable>) -> Result<()> {
        match self.inner.mode {
            Mode::Blocking => {
                let r = force(&node);
                if let Err(e) = &r {
                    self.record_error(e);
                }
                r
            }
            Mode::Nonblocking => {
                self.inner.sequence.lock().push(Arc::downgrade(&node));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes() {
        assert_eq!(Context::blocking().mode(), Mode::Blocking);
        assert_eq!(Context::nonblocking().mode(), Mode::Nonblocking);
    }

    #[test]
    fn blocking_finish_forces_immediately() {
        let ctx = Context::blocking();
        let n = Node::pending(vec![], Box::new(|| Ok(5i32)));
        ctx.finish_op(n.clone()).unwrap();
        assert!(n.is_complete());
        assert_eq!(ctx.pending_ops(), 0);
    }

    #[test]
    fn nonblocking_defers_until_wait() {
        let ctx = Context::nonblocking();
        let n = Node::pending(vec![], Box::new(|| Ok(5i32)));
        ctx.finish_op(n.clone()).unwrap();
        assert!(!n.is_complete());
        assert_eq!(ctx.pending_ops(), 1);
        ctx.wait().unwrap();
        assert!(n.is_complete());
        assert_eq!(ctx.pending_ops(), 0);
    }

    #[test]
    fn wait_reports_first_error_and_records_it() {
        let ctx = Context::nonblocking();
        let bad: Arc<Node<i32>> = Node::pending(
            vec![],
            Box::new(|| Err(Error::Arithmetic("overflow!".into()))),
        );
        let ok = Node::pending(vec![], Box::new(|| Ok(1i32)));
        ctx.finish_op(bad.clone()).unwrap();
        ctx.finish_op(ok.clone()).unwrap();
        let e = ctx.wait().unwrap_err();
        assert!(matches!(e, Error::Arithmetic(_)));
        // later ops still completed
        assert!(ok.is_complete());
        assert!(ctx.error().unwrap().contains("overflow!"));
        // sequence terminated: a second wait succeeds (new sequence)
        ctx.wait().unwrap();
    }

    #[test]
    fn dropped_intermediates_are_never_computed() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ctx = Context::nonblocking();
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let n: Arc<Node<i32>> = Node::pending(
            vec![],
            Box::new(move || {
                r.store(true, Ordering::SeqCst);
                Ok(1)
            }),
        );
        ctx.finish_op(n.clone()).unwrap();
        drop(n); // the only strong ref gone: dead intermediate
        ctx.wait().unwrap();
        assert!(!ran.load(Ordering::SeqCst), "dead code must be elided");
    }

    #[test]
    fn blocking_error_returns_from_the_call() {
        let ctx = Context::blocking();
        let bad: Arc<Node<i32>> = Node::pending(vec![], Box::new(|| Err(Error::Panic("x".into()))));
        assert!(ctx.finish_op(bad).is_err());
        assert!(ctx.error().is_some());
    }

    #[test]
    fn fault_injection_hook() {
        let ctx = Context::blocking();
        ctx.inject_fault(Error::InjectedFault("test".into()));
        assert!(ctx.take_fault().is_some());
        assert!(ctx.take_fault().is_none()); // consumed
    }
}
