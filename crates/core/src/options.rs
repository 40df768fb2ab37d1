//! Session settings: the one owner of every engine knob the paper's
//! single `GrB_init` context (§IV) implies — the intra-kernel degree,
//! the forced SpMSpV direction, the delta-log run cap and the background
//! flush window. Storage has no session setting: new matrices start as
//! one CSR slab, and tiling is per matrix (`Matrix::set_tile_shape`).
//!
//! Each setting resolves in one order: a scoped override (per thread
//! for the degree and the cost model, [`with_parallelism`] /
//! [`with_cost_model`]; process-wide for the direction,
//! [`with_direction`]), then the session value (`capi::Config` and
//! `gxb_set` at `Global` scope write it, `capi::finalize` clears it with
//! [`reset`]), then the `GRB_*` environment, then the compiled default.
//! The environment is read once per process, at the first engine call
//! that consults it, so a variable must be set before that call.
//!
//! Reads are lock-free: a session value is one relaxed atomic load, and
//! the environment a `OnceLock` read.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Duration;

use crate::kernel::spmspv::Direction;
use crate::storage::delta::RUN_CAP;

/// Default auto-flush time window (milliseconds). Once a log holds
/// [`crate::storage::delta::AUTOFLUSH_MIN_PENDING`] entries, a
/// background flush is queued this far in the future.
pub const DEFAULT_FLUSH_WINDOW_MS: u64 = 200;

// ----- the environment -----

/// The `GRB_*` variables, parsed through `var` (`std::env::var` in
/// production).
#[derive(Debug, Default, PartialEq)]
struct Env {
    /// `GRB_TEST_THREADS`, else `GRB_THREADS`: default degree and
    /// worker-pool width; positive.
    threads: Option<usize>,
    /// `GRB_DELTA_RUN_CAP`: delta-log tail-seal cap; positive.
    run_cap: Option<usize>,
    /// `GRB_FLUSH_WINDOW_MS`: auto-flush time window; `0` disables it.
    flush_window_ms: Option<u64>,
}

impl Env {
    fn read(var: impl Fn(&str) -> Option<String>) -> Env {
        let positive = |key| parse::<usize>(&var, key).filter(|&k| k > 0);
        Env {
            threads: positive("GRB_TEST_THREADS").or_else(|| positive("GRB_THREADS")),
            run_cap: positive("GRB_DELTA_RUN_CAP"),
            flush_window_ms: parse(&var, "GRB_FLUSH_WINDOW_MS"),
        }
    }
}

fn parse<T: std::str::FromStr>(var: impl Fn(&str) -> Option<String>, key: &str) -> Option<T> {
    var(key)?.trim().parse().ok()
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| Env::read(|key| std::env::var(key).ok()))
}

/// The hardware's parallelism, asked once: on Linux each call reads the
/// cgroup quota files.
fn hardware_degree() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

// ----- session values -----

/// The session settings, indexing [`Session`].
#[derive(Clone, Copy)]
enum Setting {
    Degree,
    Direction,
    RunCap,
    FlushWindowMs,
}

const UNSET: u64 = u64::MAX;

/// One word per [`Setting`], `UNSET` until a session sets it.
struct Session([AtomicU64; 4]);

static SESSION: Session = Session::new();

impl Session {
    const fn new() -> Self {
        Session([const { AtomicU64::new(UNSET) }; 4])
    }

    fn get(&self, s: Setting) -> Option<u64> {
        match self.0[s as usize].load(Relaxed) {
            UNSET => None,
            v => Some(v),
        }
    }

    fn set(&self, s: Setting, v: Option<u64>) {
        self.0[s as usize].store(v.unwrap_or(UNSET), Relaxed);
    }

    /// Degree before any scoped override: session > env > hardware.
    fn degree(&self, env: &Env) -> usize {
        let session = self.get(Setting::Degree).map(|k| k as usize);
        session
            .or(env.threads)
            .unwrap_or_else(hardware_degree)
            .max(1)
    }

    /// Tail-seal cap: session > env > [`RUN_CAP`].
    fn run_cap(&self, env: &Env) -> usize {
        let session = self.get(Setting::RunCap).map(|k| k as usize);
        session.or(env.run_cap).unwrap_or(RUN_CAP).max(1)
    }

    /// Auto-flush window: session > env > [`DEFAULT_FLUSH_WINDOW_MS`];
    /// `0` from either source disables the time trigger (`None`).
    fn flush_window(&self, env: &Env) -> Option<Duration> {
        let ms = self.get(Setting::FlushWindowMs);
        let ms = ms
            .or(env.flush_window_ms)
            .unwrap_or(DEFAULT_FLUSH_WINDOW_MS);
        (ms > 0).then(|| Duration::from_millis(ms))
    }
}

/// Clear every session value back to auto (`GrB_finalize`), so pinned
/// values cannot leak into the next session.
pub fn reset() {
    for slot in &SESSION.0 {
        slot.store(UNSET, Relaxed);
    }
}

/// Set (or with `None` clear) the session's intra-kernel degree
/// (`capi::Config::parallelism`).
pub fn set_degree(k: Option<usize>) {
    SESSION.set(Setting::Degree, k.map(|k| k as u64));
}

/// The session's intra-kernel degree, if one is set.
pub fn session_degree() -> Option<usize> {
    SESSION.get(Setting::Degree).map(|k| k as usize)
}

/// Degree before any thread's override: session > env > hardware. Also
/// decides the worker pool's width at first use.
pub(crate) fn default_degree() -> usize {
    SESSION.degree(env())
}

/// Set (or with `None` clear) the session's delta-log run cap
/// (`GxB_set(Global, DeltaRunCap, …)`).
pub fn set_run_cap(cap: Option<usize>) {
    SESSION.set(Setting::RunCap, cap.map(|k| k as u64));
}

/// The session's run cap, if one is set.
pub fn session_run_cap() -> Option<usize> {
    SESSION.get(Setting::RunCap).map(|k| k as usize)
}

/// The effective tail-seal cap: session > `GRB_DELTA_RUN_CAP` >
/// [`RUN_CAP`].
pub fn run_cap() -> usize {
    SESSION.run_cap(env())
}

/// Set (or with `None` clear) the session's flush window
/// (`GxB_set(Global, FlushWindowMs, …)`); `Some(0)` disables
/// time-windowed auto-flush.
pub fn set_flush_window_ms(ms: Option<u64>) {
    SESSION.set(Setting::FlushWindowMs, ms);
}

/// The session's flush window, if one is set.
pub fn session_flush_window_ms() -> Option<u64> {
    SESSION.get(Setting::FlushWindowMs)
}

/// The effective auto-flush time window: session >
/// `GRB_FLUSH_WINDOW_MS` > [`DEFAULT_FLUSH_WINDOW_MS`]; `0` disables
/// the time trigger (`None`). The size trigger is never disabled.
pub fn flush_window() -> Option<Duration> {
    SESSION.flush_window(env())
}

/// The forced SpMSpV direction, [`Direction::Auto`] when none is.
pub fn direction() -> Direction {
    match SESSION.get(Setting::Direction) {
        Some(1) => Direction::Push,
        Some(2) => Direction::Pull,
        Some(3) => Direction::Dense,
        _ => Direction::Auto,
    }
}

/// Run `f` with the SpMSpV direction forced process-wide (restored on
/// exit, panic included). Process-wide, not per thread, on purpose:
/// kernel chunks run on the pool's worker threads, and the equivalence
/// tests and the E12 baseline need the forced direction to reach them.
/// Concurrent callers forcing *different* directions race and must
/// serialize themselves.
pub fn with_direction<R>(d: Direction, f: impl FnOnce() -> R) -> R {
    let code = match d {
        Direction::Auto => UNSET,
        Direction::Push => 1,
        Direction::Pull => 2,
        Direction::Dense => 3,
    };
    let slot = &SESSION.0[Setting::Direction as usize];
    let prev = slot.swap(code, Relaxed);
    let _restore = Restore(|| slot.store(prev, Relaxed));
    f()
}

// ----- scoped overrides on this thread -----

/// This thread's overrides: the degree and the cost model's
/// `(min_rows, min_work)` thresholds.
#[derive(Clone, Copy)]
struct Scoped {
    degree: Option<usize>,
    cost: Option<(usize, usize)>,
}

thread_local! {
    static SCOPED: Cell<Scoped> = const {
        Cell::new(Scoped {
            degree: None,
            cost: None,
        })
    };
}

/// Runs its closure when dropped: a scope's restore, panic included.
struct Restore<F: FnMut()>(F);

impl<F: FnMut()> Drop for Restore<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

fn with_scoped<R>(edit: impl FnOnce(&mut Scoped), f: impl FnOnce() -> R) -> R {
    let prev = SCOPED.with(Cell::get);
    let mut next = prev;
    edit(&mut next);
    SCOPED.with(|s| s.set(next));
    let _restore = Restore(|| SCOPED.with(|s| s.set(prev)));
    f()
}

/// Run `f` with the intra-kernel degree forced to `k` on this thread
/// (`0` restores auto). `k = 1` forces the serial path; determinism
/// tests rely on `with_parallelism(1, …) == with_parallelism(8, …)`
/// bitwise.
pub fn with_parallelism<R>(k: usize, f: impl FnOnce() -> R) -> R {
    with_scoped(|s| s.degree = (k > 0).then_some(k), f)
}

/// Run `f` with the cost-model thresholds overridden on this thread —
/// `(1, 0)` makes every multi-row kernel chunk, however small.
pub fn with_cost_model<R>(min_rows: usize, min_work: usize, f: impl FnOnce() -> R) -> R {
    with_scoped(|s| s.cost = Some((min_rows, min_work)), f)
}

/// The degree kernels on this thread fan out to: this thread's override,
/// else the session degree, the environment, then the hardware.
pub fn effective_parallelism() -> usize {
    SCOPED.with(Cell::get).degree.unwrap_or_else(default_degree)
}

/// This thread's cost-model override, if any.
pub(crate) fn cost_model() -> Option<(usize, usize)> {
    SCOPED.with(Cell::get).cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of(vars: &[(&str, &str)]) -> Env {
        Env::read(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn env_parses_the_grb_variables() {
        assert_eq!(env_of(&[]), Env::default());
        let env = env_of(&[
            ("GRB_THREADS", "4"),
            ("GRB_DELTA_RUN_CAP", " 5 "),
            ("GRB_FLUSH_WINDOW_MS", "0"),
        ]);
        assert_eq!(env.threads, Some(4));
        assert_eq!(env.run_cap, Some(5));
        assert_eq!(env.flush_window_ms, Some(0));
        // the test degree wins; zero and junk read as unset
        let env = env_of(&[("GRB_TEST_THREADS", "2"), ("GRB_THREADS", "4")]);
        assert_eq!(env.threads, Some(2));
        let env = env_of(&[("GRB_TEST_THREADS", "0"), ("GRB_DELTA_RUN_CAP", "x")]);
        assert_eq!((env.threads, env.run_cap), (None, None));
    }

    #[test]
    fn session_beats_env_beats_default() {
        // a private session, so the process-wide one stays untouched
        let session = Session::new();
        let env = env_of(&[
            ("GRB_THREADS", "3"),
            ("GRB_DELTA_RUN_CAP", "5"),
            ("GRB_FLUSH_WINDOW_MS", "0"),
        ]);
        // no session value: the environment wins; window 0 disables the
        // time trigger
        assert_eq!(session.degree(&env), 3);
        assert_eq!(session.run_cap(&env), 5);
        assert_eq!(session.flush_window(&env), None);
        // the session beats the environment…
        session.set(Setting::Degree, Some(7));
        session.set(Setting::RunCap, Some(2));
        session.set(Setting::FlushWindowMs, Some(7));
        assert_eq!(session.degree(&env), 7);
        assert_eq!(session.run_cap(&env), 2);
        assert_eq!(session.flush_window(&env), Some(Duration::from_millis(7)));
        session.set(Setting::FlushWindowMs, Some(0));
        assert_eq!(session.flush_window(&env), None, "0 disables it too");
        // …and clearing it falls back to the environment, not the default
        for s in [Setting::Degree, Setting::RunCap, Setting::FlushWindowMs] {
            session.set(s, None);
        }
        assert_eq!(session.degree(&env), 3);
        assert_eq!(session.run_cap(&env), 5);
        assert_eq!(session.flush_window(&env), None);
        // with neither, the compiled defaults
        let none = Env::default();
        assert_eq!(session.degree(&none), hardware_degree());
        assert_eq!(session.run_cap(&none), RUN_CAP);
        assert_eq!(
            session.flush_window(&none),
            Some(Duration::from_millis(DEFAULT_FLUSH_WINDOW_MS))
        );
    }

    #[test]
    fn degree_override_wins_and_restores() {
        let outer = effective_parallelism();
        with_parallelism(3, || {
            assert_eq!(effective_parallelism(), 3);
            with_cost_model(1, 0, || {
                with_parallelism(1, || assert_eq!(effective_parallelism(), 1));
                assert_eq!(cost_model(), Some((1, 0)));
                assert_eq!(effective_parallelism(), 3);
            });
            assert_eq!(cost_model(), None);
        });
        assert_eq!(effective_parallelism(), outer);
    }
}
