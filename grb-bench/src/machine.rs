//! The machine record stored beside every result, and the process's own
//! memory high-water mark.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Threads and connections the harness itself may use, and the `GRB_THREADS`
/// it pins the engine to: the box may be bigger than the one the bounds were
/// measured on, and a wider pool would change what is measured.
pub fn harness_threads() -> usize {
    nproc().min(4)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn record() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj()
        .with("nproc", nproc())
        .with("harness_threads", harness_threads())
        .with("cpu_model", cpu_model())
        .with(
            "rustc",
            first_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        // the commit of the checkout this binary was built from, wherever it
        // is run from; the acceptance checkout is not a git repository, and
        // "unknown" is expected there
        .with(
            "git_commit",
            first_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )
            .unwrap_or_else(unknown),
        )
}

/// `VmHWM` of this process in MiB: the peak resident set since it started,
/// or since the mark was last reset.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of a timed phase, as the median of per-window peaks: the
/// high-water mark is read and reset every [`PeakRss::WINDOW`], so one
/// coincidence of a compaction with a snapshot moves one window and not the
/// figure. Where the kernel refuses the reset (`/proc/self/clear_refs`), the
/// figure falls back to the process-wide mark.
pub struct PeakRss {
    window_start: Instant,
    peaks: Vec<f64>,
    can_reset: bool,
}

impl PeakRss {
    const WINDOW: Duration = Duration::from_millis(500);

    fn reset_mark() -> bool {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }

    pub fn start() -> PeakRss {
        PeakRss {
            can_reset: Self::reset_mark(),
            window_start: Instant::now(),
            peaks: Vec::new(),
        }
    }

    /// Call often (between operations, or from a waiting thread's sleep loop).
    pub fn tick(&mut self) {
        if self.can_reset && self.window_start.elapsed() >= Self::WINDOW {
            self.peaks.push(vm_hwm_mb());
            Self::reset_mark();
            self.window_start = Instant::now();
        }
    }

    pub fn finish(mut self) -> f64 {
        if self.peaks.is_empty() || self.window_start.elapsed() >= Self::WINDOW / 2 {
            self.peaks.push(vm_hwm_mb());
        }
        crate::stats::median(&self.peaks)
    }
}
