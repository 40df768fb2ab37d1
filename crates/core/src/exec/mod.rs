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
pub(crate) mod trace;

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::error::{Error, Result};
#[doc(hidden)]
pub use node::Completable;
pub(crate) use node::{catch_panic, force, invalidated, Node};
#[doc(hidden)]
pub use trace::take_notes;
pub use trace::TraceEvent;

/// The one fusion policy: the pending DAG executes as written. Kept,
/// with [`Context::with_fuse_policy`], only for the benchmark harness's
/// `core.exec` probe, which still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusePolicy {
    /// Execute the DAG exactly as written.
    Off,
}

/// Inert: `wait()` has one way to run. Kept for grb-bench's `core.exec`
/// probe, which passes it to [`Context::with_fuse_policy`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    Parallel,
}

/// Load snapshot of the shared worker pool: how many daemon workers
/// exist and how many kernel chunks sit in the shared queue right now.
///
/// Observability hook for layers that place work *onto* the engine:
/// the `server` crate reports it in its `STATS` reply. Nothing sheds
/// load on it. `queued` counts tasks waiting in the queue, not tasks
/// mid-execution, so it is a floor on outstanding work; both fields are
/// `0` before the pool's first use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatus {
    /// Daemon worker count (fixed at first use).
    pub width: usize,
    /// Tasks currently waiting in the shared queue.
    pub queued: usize,
}

/// Snapshot the shared worker pool's load (see [`PoolStatus`]), as the
/// server's `STATS` reply shows it. Never spawns the pool.
pub fn pool_status() -> PoolStatus {
    let (width, queued) = crate::kernel::workers::status();
    PoolStatus { width, queued }
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
    /// Deferred outputs of the current sequence, in program order. Weak:
    /// an intermediate dropped unobserved is simply never computed (the
    /// "lazy evaluation" latitude of §IV).
    sequence: Mutex<Vec<Weak<dyn Completable>>>,
    /// `GrB_error()`: detail text of the most recent execution error.
    last_error: Mutex<Option<String>>,
    /// Test hook: the next submitted operation fails with this error.
    injected: Mutex<Option<Error>>,
    /// Execution tracing: when enabled, each `wait()` appends one event
    /// per node it computes; drained by `take_trace`.
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
    /// Create a context in the given mode.
    pub fn new(mode: Mode) -> Self {
        Context {
            inner: Arc::new(CtxInner {
                mode,
                sequence: Mutex::new(Vec::new()),
                last_error: Mutex::new(None),
                injected: Mutex::new(None),
                tracing: std::sync::atomic::AtomicBool::new(false),
                trace: Mutex::new(Vec::new()),
            }),
        }
    }

    /// `GrB_init(GrB_BLOCKING)`.
    pub fn blocking() -> Self {
        Context::new(Mode::Blocking)
    }

    /// `GrB_init(GrB_NONBLOCKING)`.
    pub fn nonblocking() -> Self {
        Context::new(Mode::Nonblocking)
    }

    /// [`Context::new`]. Kept for grb-bench's `core.exec` probe.
    #[doc(hidden)]
    pub fn with_fuse_policy(mode: Mode, _sched: SchedPolicy, _fuse: FusePolicy) -> Self {
        Context::new(mode)
    }

    /// [`Context::nonblocking`]. Kept for grb-bench's `core.exec` probe.
    #[doc(hidden)]
    pub fn nonblocking_sequential() -> Self {
        Context::nonblocking()
    }

    /// [`Context::nonblocking`]. Kept for grb-bench's `core.exec` probe.
    #[doc(hidden)]
    pub fn nonblocking_parallel() -> Self {
        Context::nonblocking()
    }

    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// Enable or disable execution tracing. While enabled, each
    /// `wait()` appends one [`TraceEvent`] per node it computes; collect
    /// them with [`Context::take_trace`].
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
    /// deferred output. Each live root is forced in program order on
    /// the calling thread (its pending cone first, each node once), so
    /// the error returned is the *first in program order*; later
    /// outputs are still completed and carry their own failure states,
    /// poisoning their consumers per §V.
    pub fn wait(&self) -> Result<()> {
        let pending: Vec<Weak<dyn Completable>> = std::mem::take(&mut *self.inner.sequence.lock());
        let mut sink = self
            .inner
            .tracing
            .load(std::sync::atomic::Ordering::Relaxed)
            .then(trace::TraceSink::new);
        let mut first_err: Option<Error> = None;
        for (seq, root) in pending.iter().filter_map(Weak::upgrade).enumerate() {
            let r = node::force_with(&root, &mut |n| match &mut sink {
                Some(sink) => sink.compute(n, Arc::ptr_eq(n, &root).then_some(seq)),
                None => n.compute(),
            });
            if let Err(e) = r {
                self.record_error(&e);
                first_err.get_or_insert(e);
            }
        }
        if let Some(sink) = sink {
            self.inner.trace.lock().extend(sink.into_events());
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

    fn c(n: &Arc<Node<i32>>) -> Arc<dyn Completable> {
        n.clone() as Arc<dyn Completable>
    }

    #[test]
    fn wait_computes_a_shared_intermediate_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // base → {left, right} → top, all four in the sequence; `top`
        // also reads `left` twice, as `mxm(A, A)` reads its operand
        let count = Arc::new(AtomicUsize::new(0));
        let cnt = count.clone();
        let base: Arc<Node<i32>> = Node::pending(
            vec![],
            Box::new(move || {
                cnt.fetch_add(1, Ordering::SeqCst);
                Ok(10)
            }),
        );
        let (b1, b2) = (base.clone(), base.clone());
        let left = Node::pending(
            vec![c(&base)],
            Box::new(move || b1.ready_storage().map(|v| *v + 1)),
        );
        let right = Node::pending(
            vec![c(&base)],
            Box::new(move || b2.ready_storage().map(|v| *v + 2)),
        );
        let (l, r) = (left.clone(), right.clone());
        let top = Node::pending(
            vec![c(&left), c(&right), c(&left)],
            Box::new(move || Ok(2 * *l.ready_storage()? + *r.ready_storage()?)),
        );
        let ctx = Context::nonblocking();
        ctx.enable_trace(true);
        for n in [&top, &left, &right, &base] {
            // submit out of order: the forcing walk still runs `base` first
            ctx.finish_op(c(n)).unwrap();
        }
        ctx.wait().unwrap();
        assert_eq!(*top.ready_storage().unwrap(), 34);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        let trace = ctx.take_trace();
        assert_eq!(trace.len(), 4, "one event per node: {trace:?}");
        // `top` (seq 0) pulled the other three in as its dependencies
        assert_eq!(trace.last().unwrap().seq, Some(0));
        assert!(trace[..3].iter().all(|e| e.seq.is_none()));
    }

    #[test]
    fn wait_poisons_consumers_of_failures() {
        let bad: Arc<Node<i32>> =
            Node::pending(vec![], Box::new(|| Err(Error::Arithmetic("boom".into()))));
        let b = bad.clone();
        let consumer = Node::pending(
            vec![c(&bad)],
            Box::new(move || b.ready_storage().map(|v| *v + 1)),
        );
        let ok = Node::pending(vec![], Box::new(|| Ok(7i32)));
        let ctx = Context::nonblocking();
        for n in [&bad, &consumer, &ok] {
            ctx.finish_op(c(n)).unwrap();
        }
        assert!(matches!(ctx.wait(), Err(Error::Arithmetic(_))));
        assert!(matches!(bad.failure(), Some(Error::Arithmetic(_))));
        assert!(matches!(consumer.failure(), Some(Error::InvalidObject(_))));
        assert_eq!(*ok.ready_storage().unwrap(), 7);
    }

    #[test]
    fn traced_wait_reports_intra_kernel_chunking() {
        // a node whose compute fans row chunks out to the pool reports
        // the chunking on its trace event; its neighbour reports none
        use crate::kernel::par;
        let chunked: Arc<Node<i32>> = Node::pending(
            vec![],
            Box::new(|| {
                par::with_parallelism(4, || {
                    par::with_cost_model(1, 0, || {
                        let plan = par::plan(256, 256).expect("forced plan");
                        let parts = par::run_chunks(256, plan, |s, e| e - s);
                        Ok(parts.iter().sum::<usize>() as i32)
                    })
                })
            }),
        );
        let plain: Arc<Node<i32>> = Node::pending(vec![], Box::new(|| Ok(1)));
        let ctx = Context::nonblocking();
        ctx.enable_trace(true);
        ctx.finish_op(c(&chunked)).unwrap();
        ctx.finish_op(c(&plain)).unwrap();
        ctx.wait().unwrap();
        let trace = ctx.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!((trace[0].par_chunks > 0, trace[0].chunk_rows), (true, 256));
        assert!(trace[0].par_workers >= 1);
        assert_eq!(trace[1].par_chunks, 0);
    }

    /// `wait()` on one thread and `nvals` on another force the same
    /// shared pending cone at once: every thunk still runs exactly once,
    /// and both threads see blocking's result.
    #[test]
    fn wait_races_per_object_forcing() {
        use crate::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        // a · b → {x, y} → z, one entry each, so each thunk calls its
        // counting operator exactly once
        fn pipeline(ctx: &Context, runs: &Arc<AtomicUsize>) -> Matrix<i64> {
            let (r1, r2) = (runs.clone(), runs.clone());
            let inc = unary_fn(move |v: &i64| {
                r1.fetch_add(1, Ordering::SeqCst);
                v + 1
            });
            let add = binary_fn(move |u: &i64, v: &i64| {
                r2.fetch_add(1, Ordering::SeqCst);
                u + v
            });
            let d = Descriptor::default();
            let a = Matrix::from_tuples(1, 1, &[(0, 0, 1i64)]).unwrap();
            let [b, x, y, z] = [(); 4].map(|_| Matrix::<i64>::new(1, 1).unwrap());
            ctx.apply_matrix(&b, NoMask, NoAccum, inc.clone(), &a, &d)
                .unwrap();
            ctx.apply_matrix(&x, NoMask, NoAccum, inc.clone(), &b, &d)
                .unwrap();
            ctx.apply_matrix(&y, NoMask, NoAccum, inc, &b, &d).unwrap();
            ctx.ewise_add_matrix(&z, NoMask, NoAccum, add, &x, &y, &d)
                .unwrap();
            z
        }

        let want = pipeline(&Context::blocking(), &Arc::new(AtomicUsize::new(0)))
            .extract_tuples()
            .unwrap();
        assert_eq!(want, vec![(0, 0, 6)]);
        for _ in 0..50 {
            let ctx = Context::nonblocking();
            let runs = Arc::new(AtomicUsize::new(0));
            let z = pipeline(&ctx, &runs);
            assert_eq!(runs.load(Ordering::SeqCst), 0, "deferred");
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    ctx.wait().unwrap();
                    assert_eq!(z.extract_tuples().unwrap(), want);
                });
                start.wait();
                assert_eq!(z.nvals().unwrap(), 1);
                assert_eq!(z.extract_tuples().unwrap(), want);
            });
            assert_eq!(runs.load(Ordering::SeqCst), 4, "each thunk once");
        }
    }
}
