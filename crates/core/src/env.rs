//! The environment layer of configuration: every `GRB_*` knob, parsed
//! once per process at first use. Each sits *below* its session-scoped
//! override (`capi::Config` / `gxb_set`) and *above* the compiled-in
//! default; a variable must therefore be set before the first engine
//! call that consults any of them.

use std::sync::OnceLock;

pub(crate) struct Env {
    /// `GRB_TEST_THREADS`, else `GRB_THREADS`: default parallelism
    /// degree and worker-pool width; positive.
    pub(crate) threads: Option<usize>,
    /// `GRB_DELTA_RUN_CAP`: delta-log tail-seal cap; positive.
    pub(crate) delta_run_cap: Option<usize>,
    /// `GRB_FLUSH_WINDOW_MS`: auto-flush time window; `0` disables it.
    pub(crate) flush_window_ms: Option<u64>,
}

fn parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.trim().parse().ok()
}

pub(crate) fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let positive = |key| parse::<usize>(key).filter(|&k| k > 0);
        Env {
            threads: positive("GRB_TEST_THREADS").or_else(|| positive("GRB_THREADS")),
            delta_run_cap: positive("GRB_DELTA_RUN_CAP"),
            flush_window_ms: parse("GRB_FLUSH_WINDOW_MS"),
        }
    })
}
