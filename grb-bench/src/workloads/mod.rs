//! The six workloads. Each one is a `Workload`: set up from the seed, run a
//! timed pass (optionally traced), check its outputs, tear down.

use std::time::Instant;

use crate::inputs::Fingerprint;
use crate::machine::PeakRss;
use crate::stats::sorted;
use crate::trace::{Span, Tracer};

pub mod analytics;
pub mod bc_batch;
pub mod capi_mix;
pub mod ingest_query;
pub mod server_mix;
pub mod traverse;

/// In the order `all` runs them. Why each exists is recorded in
/// `BENCHMARK.json` and the README.
pub const WORKLOADS: &[&str] = &[
    "bc_batch",
    "traverse",
    "analytics",
    "capi_mix",
    "ingest_query",
    "server_mix",
];

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Smoke mode: scales <= 10, same code paths and checks.
    pub quick: bool,
    /// Threads and connections the harness may use: `min(nproc, 4)`.
    pub threads: usize,
}

impl Cfg {
    pub fn scale(&self, full: u32, quick: u32) -> u32 {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// What one timed pass produced.
#[derive(Default)]
pub struct Phase {
    /// The workload's solves as `(instant, latency in ms)`, and the work it
    /// completed as `(instant, units)`: operations, requests or edge updates.
    /// Instants are seconds on the phase's clock, which runs to `span_s`.
    pub samples: Vec<(f64, f64)>,
    pub work: Vec<(f64, f64)>,
    pub span_s: f64,
    /// Operations (or requests) attempted and those that errored, were
    /// refused, or returned a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Median of the per-window peak resident set over the pass, in MiB.
    pub peak_rss_mb: f64,
    /// Workload-specific numbers kept in `result.json` beside the contract
    /// metrics: `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
}

impl Phase {
    /// The solve latencies, ascending.
    pub fn solve_ms(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|s| s.1).collect())
    }
}

pub trait Workload {
    /// The generated graphs, for the fingerprint record.
    fn graphs(&self) -> Vec<Fingerprint>;
    /// Compute reference answers. Untimed, and not part of `setup_s`.
    fn prepare_checks(&mut self);
    /// One timed pass of about `seconds`. Output checks run between the timed
    /// sections and feed `failed`.
    fn run(&mut self, seconds: f64, traced: bool) -> Phase;
    /// Final-state checks after the last pass: `(attempted, failed)`.
    fn final_checks(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// Generate, build, start and warm up: everything `setup_s` covers.
pub fn setup(name: &str, cfg: &Cfg) -> Option<Box<dyn Workload>> {
    Some(match name {
        "bc_batch" => Box::new(bc_batch::BcBatch::setup(cfg)),
        "traverse" => Box::new(traverse::Traverse::setup(cfg)),
        "analytics" => Box::new(analytics::Analytics::setup(cfg)),
        "capi_mix" => Box::new(capi_mix::CapiMix::setup(cfg)),
        "ingest_query" => Box::new(ingest_query::IngestQuery::setup(cfg)),
        "server_mix" => Box::new(server_mix::ServerMix::setup(cfg)),
        _ => return None,
    })
}

/// Every timed phase is preceded by this many untimed operations, so memoized
/// views, degree caches and the worker pool exist before timing.
pub const WARMUP_OPS: u64 = 3;

/// The single-threaded workloads' timed loop. `op(i)` runs operation `i`
/// inside its own span, times only the calls into the program, checks the
/// output afterwards and returns `(milliseconds, ok)`. The phase's clock is
/// the time spent inside operations, so the harness's own checks between them
/// count neither as latency nor against the work rate.
pub fn timed_ops(
    seconds: f64,
    traced: bool,
    mut op: impl FnMut(u64, &Tracer) -> (f64, bool),
) -> Phase {
    let start = Instant::now();
    let tracer = Tracer::new(traced, 1, start);
    let mut phase = Phase::default();
    let mut busy_s = 0.0;
    let mut rss = PeakRss::start();
    while phase.attempted < WARMUP_OPS || start.elapsed().as_secs_f64() < seconds {
        tracer.set_op(phase.attempted);
        let (ms, ok) = op(phase.attempted, &tracer);
        busy_s += ms / 1e3;
        phase.samples.push((busy_s, ms));
        phase.attempted += 1;
        phase.failed += u64::from(!ok);
        rss.tick();
    }
    phase.peak_rss_mb = rss.finish();
    phase.work = phase.samples.iter().map(|s| (s.0, 1.0)).collect();
    phase.span_s = busy_s;
    phase.spans = tracer.into_spans();
    phase
}

/// Time `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Relative closeness, `|got - want| <= tol * max(|want|, floor)`: `floor`
/// is the magnitude below which the comparison turns absolute.
pub fn close(got: f64, want: f64, tol: f64, floor: f64) -> bool {
    (got - want).abs() <= tol * want.abs().max(floor)
}

/// [`close`] on every entry, and equal absence.
pub fn close_opt(got: &[Option<f64>], want: &[Option<f64>], tol: f64, floor: f64) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| match (g, w) {
            (Some(g), Some(w)) => close(*g, *w, tol, floor),
            (None, None) => true,
            _ => false,
        })
}

/// What the main thread does while the worker threads of a concurrent
/// workload run: wait out `seconds`, keeping the memory windows ticking.
pub fn wait_measuring_rss(seconds: f64) -> f64 {
    let start = Instant::now();
    let mut rss = PeakRss::start();
    while start.elapsed().as_secs_f64() < seconds {
        std::thread::sleep(std::time::Duration::from_millis(20));
        rss.tick();
    }
    rss.finish()
}
