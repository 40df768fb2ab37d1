//! The process-global context lifecycle of the C API (paper §IV):
//! `GrB_init(mode)` establishes the execution context once, before any
//! other method; `GrB_finalize()` tears it down.
//!
//! Documented deviation (DESIGN.md): the paper forbids any re-`init`
//! after `finalize` for the lifetime of the process. A Rust test binary
//! runs many independent sessions in one process, so this facade allows
//! `init` again *after* a `finalize` — but still rejects a second `init`
//! while a context is live, which is the behaviourally observable part
//! of the rule. [`with_session`] packages the lock-init-run-finalize
//! pattern for embedders and tests.

use graphblas_core::error::{Error, Result};
use graphblas_core::exec::{Context, Mode, TraceEvent};
use graphblas_core::options;
use parking_lot::{Mutex, ReentrantMutex};

static GLOBAL: Mutex<Option<Context>> = Mutex::new(None);
/// Serializes whole sessions (init → … → finalize) across threads.
static SESSION: ReentrantMutex<()> = ReentrantMutex::new(());

/// Builder for establishing the process-global context — the single
/// init path of this binding.
///
/// Only the mode is mandatory; every knob defaults to the engine
/// default and reads as a method chain:
///
/// ```
/// use graphblas_capi as capi;
/// use capi::{Config, Mode};
///
/// # capi::context::session_guard_for_doctest(|| {
/// capi::Config::new(Mode::Nonblocking)
///     .parallelism(4) // intra-kernel chunk degree
///     .init()
///     .unwrap();
/// // … GraphBLAS calls …
/// capi::finalize().unwrap();
/// # });
/// ```
///
/// * [`Config::parallelism`] — the default intra-kernel data-parallel
///   degree (how many row chunks a large kernel fans out to the shared
///   pool); unset means auto (`GRB_THREADS`/`GRB_TEST_THREADS`, then
///   the hardware's parallelism). [`finalize`] restores auto.
///
/// The storage knobs (delta-log run cap, background flush window) have
/// one path: [`gxb_set`](crate::gxb_set) at
/// [`Global`](crate::GxbScope::Global) scope inside the session.
#[derive(Debug, Clone)]
#[must_use = "the builder does nothing until .init() is called"]
pub struct Config {
    mode: Mode,
    parallelism: Option<usize>,
}

impl Config {
    /// Start a configuration for `GrB_init(mode)` with default knobs.
    pub fn new(mode: Mode) -> Self {
        Config {
            mode,
            parallelism: None,
        }
    }

    /// Set the default intra-kernel parallelism degree (`k >= 1`;
    /// `k == 1` keeps every kernel on its serial path). Out-of-range
    /// values are rejected at [`Config::init`].
    pub fn parallelism(mut self, k: usize) -> Self {
        self.parallelism = Some(k);
        self
    }

    /// `GrB_init` with this configuration. Fails with
    /// `GrB_INVALID_VALUE` if a context is already established or the
    /// configuration is malformed.
    pub fn init(self) -> Result<()> {
        if self.parallelism == Some(0) {
            return Err(Error::InvalidValue(
                "Config::parallelism must be >= 1 (unset means auto)".into(),
            ));
        }
        let mut g = GLOBAL.lock();
        if g.is_some() {
            return Err(Error::InvalidValue(
                "GrB_init called while a context is already established".into(),
            ));
        }
        options::set_degree(self.parallelism);
        *g = Some(Context::new(self.mode));
        Ok(())
    }
}

/// `GrB_finalize()`. Fails if no context is established. Also restores
/// every session setting ([`Config::parallelism`], anything set through
/// [`gxb_set`](crate::gxb_set) at [`Global`](crate::GxbScope::Global)
/// scope, a forced SpMSpV direction) to auto with one
/// [`options::reset`], so pinned values cannot leak into the next
/// session.
pub fn finalize() -> Result<()> {
    let mut g = GLOBAL.lock();
    if g.take().is_none() {
        return Err(Error::UninitializedObject(
            "GrB_finalize called without GrB_init".into(),
        ));
    }
    options::reset();
    Ok(())
}

/// The live context, or `GrB_UNINITIALIZED_OBJECT` before `init`.
pub(crate) fn ctx() -> Result<Context> {
    GLOBAL
        .lock()
        .clone()
        .ok_or_else(|| Error::UninitializedObject("GraphBLAS is not initialized".into()))
}

/// `GrB_wait()`: terminate the current sequence (nonblocking mode).
pub fn wait() -> Result<()> {
    ctx()?.wait()
}

/// `GrB_error()`: detail text of the most recent error — API *or*
/// execution — reported through this facade (§V elaborates on "the
/// last method" without distinguishing the two classes).
pub fn error() -> Option<String> {
    ctx().ok().and_then(|c| c.error())
}

/// Run an operation body and mirror any API error it returns into the
/// context's `GrB_error()` string. Execution errors record themselves
/// at completion; this covers the codes returned straight from the
/// method call (dimension/domain mismatches, invalid values, …).
pub(crate) fn record_api<R>(ctx: &Context, f: impl FnOnce() -> Result<R>) -> Result<R> {
    let r = f();
    if let Err(e) = &r {
        ctx.record_api_error(e);
    }
    r
}

/// Test hook mirroring the core context's fault injector: the next
/// submitted operation fails with `e` at execution time (reachable
/// execution errors for §V tests).
pub fn inject_fault(e: graphblas_core::error::Error) -> Result<()> {
    ctx()?.inject_fault(e);
    Ok(())
}

/// The established mode, if any (diagnostic).
pub fn current_mode() -> Option<Mode> {
    GLOBAL.lock().as_ref().map(|c| c.mode())
}

/// Enable or disable execution tracing on the live context: while on,
/// each `wait()` records one [`TraceEvent`] per node it computes.
pub fn enable_trace(on: bool) -> Result<()> {
    ctx()?.enable_trace(on);
    Ok(())
}

/// Drain the execution trace accumulated since the last call.
pub fn take_trace() -> Result<Vec<TraceEvent>> {
    Ok(ctx()?.take_trace())
}

/// Take the session lock without initializing (crate-internal: lets
/// tests assert uninitialized-state behaviour race-free).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn session_lock() -> parking_lot::ReentrantMutexGuard<'static, ()> {
    SESSION.lock()
}

/// Run `f` with the session machinery locked and **no** context
/// established — the race-free way for tests to assert
/// `GrB_UNINITIALIZED_OBJECT` behaviour.
pub fn with_no_session<R>(f: impl FnOnce() -> R) -> Result<R> {
    let _guard = SESSION.lock();
    if GLOBAL.lock().is_some() {
        return Err(Error::InvalidValue(
            "a context is unexpectedly established".into(),
        ));
    }
    Ok(f())
}

/// Run `f` inside a serialized init/finalize session — the supported way
/// to use the global API from multi-threaded test binaries.
pub fn with_session<R>(mode: Mode, f: impl FnOnce() -> R) -> Result<R> {
    with_session_config(Config::new(mode), f)
}

/// [`with_session`] with a full [`Config`]: serialized
/// `config.init()` → `f()` → `finalize()`.
pub fn with_session_config<R>(config: Config, f: impl FnOnce() -> R) -> Result<R> {
    let _guard = SESSION.lock();
    config.init()?;
    let r = f();
    finalize()?;
    Ok(r)
}

/// Doctest support: run `f` holding the session lock (hidden — doctests
/// are separate processes but share this one's conventions).
#[doc(hidden)]
pub fn session_guard_for_doctest(f: impl FnOnce()) {
    let _guard = SESSION.lock();
    f();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{gxb_set, GxbOption, GxbScope, GxbValue};

    #[test]
    fn lifecycle_rules() {
        let _guard = SESSION.lock();
        // not initialized yet
        assert!(matches!(ctx(), Err(Error::UninitializedObject(_))));
        assert!(finalize().is_err());
        Config::new(Mode::Blocking).init().unwrap();
        assert_eq!(current_mode(), Some(Mode::Blocking));
        // double init rejected while live
        assert!(matches!(
            Config::new(Mode::Blocking).init(),
            Err(Error::InvalidValue(_))
        ));
        assert!(ctx().is_ok());
        finalize().unwrap();
        assert!(ctx().is_err());
        // re-init after finalize allowed (documented deviation)
        Config::new(Mode::Nonblocking).init().unwrap();
        assert_eq!(current_mode(), Some(Mode::Nonblocking));
        finalize().unwrap();
    }

    #[test]
    fn config_parallelism_knob_scoped_to_session() {
        let _guard = SESSION.lock();
        assert_eq!(options::session_degree(), None);
        Config::new(Mode::Blocking).parallelism(3).init().unwrap();
        assert_eq!(options::session_degree(), Some(3));
        finalize().unwrap();
        // finalize restores auto — the knob cannot leak across sessions
        assert_eq!(options::session_degree(), None);
    }

    #[test]
    fn config_rejects_zero_parallelism() {
        let _guard = SESSION.lock();
        assert!(matches!(
            Config::new(Mode::Blocking).parallelism(0).init(),
            Err(Error::InvalidValue(_))
        ));
        assert!(ctx().is_err());
    }

    #[test]
    fn config_delta_knobs_scoped_to_session() {
        let _guard = SESSION.lock();
        assert_eq!(options::session_run_cap(), None);
        assert_eq!(options::session_flush_window_ms(), None);
        Config::new(Mode::Blocking).init().unwrap();
        gxb_set(
            GxbScope::Global,
            GxbOption::DeltaRunCap,
            GxbValue::Count(Some(16)),
        )
        .unwrap();
        gxb_set(
            GxbScope::Global,
            GxbOption::FlushWindowMs,
            GxbValue::Millis(Some(50)),
        )
        .unwrap();
        assert_eq!(options::session_run_cap(), Some(16));
        assert_eq!(options::run_cap(), 16);
        assert_eq!(options::session_flush_window_ms(), Some(50));
        assert_eq!(
            options::flush_window(),
            Some(std::time::Duration::from_millis(50))
        );
        finalize().unwrap();
        // finalize restores auto — the knobs cannot leak across sessions
        assert_eq!(options::session_run_cap(), None);
        assert_eq!(options::session_flush_window_ms(), None);
    }

    #[test]
    fn config_flush_window_zero_disables_time_trigger() {
        let _guard = SESSION.lock();
        Config::new(Mode::Blocking).init().unwrap();
        gxb_set(
            GxbScope::Global,
            GxbOption::FlushWindowMs,
            GxbValue::Millis(Some(0)),
        )
        .unwrap();
        assert_eq!(options::flush_window(), None);
        finalize().unwrap();
    }

    #[test]
    fn config_rejects_zero_delta_run_cap() {
        let _guard = SESSION.lock();
        Config::new(Mode::Blocking).init().unwrap();
        assert!(matches!(
            gxb_set(
                GxbScope::Global,
                GxbOption::DeltaRunCap,
                GxbValue::Count(Some(0))
            ),
            Err(Error::InvalidValue(_))
        ));
        // the rejected value leaves the knob on auto
        assert_eq!(options::session_run_cap(), None);
        finalize().unwrap();
    }

    #[test]
    fn builder_covers_former_shim_configurations() {
        // each former pre-builder shim spelling, as a Config chain
        let _guard = SESSION.lock();
        Config::new(Mode::Blocking).init().unwrap();
        assert_eq!(current_mode(), Some(Mode::Blocking));
        finalize().unwrap();
        Config::new(Mode::Nonblocking).init().unwrap();
        assert_eq!(current_mode(), Some(Mode::Nonblocking));
        finalize().unwrap();
    }

    #[test]
    fn with_session_wraps_lifecycle() {
        let out = with_session(Mode::Blocking, || {
            assert!(ctx().is_ok());
            42
        })
        .unwrap();
        assert_eq!(out, 42);
        let _guard = SESSION.lock();
        assert!(ctx().is_err());
    }

    #[test]
    fn wait_and_error_without_init() {
        let _guard = SESSION.lock();
        assert!(wait().is_err());
        assert_eq!(error(), None);
    }
}
