//! Experiment E11: ingest-while-query on MVCC snapshots
//! (`storage::snapshot`).
//!
//! A custom harness (not criterion — the unit of measurement is a
//! sustained writer/reader race, not a closure): one writer thread
//! streams point edge updates into a shared adjacency matrix at full
//! speed while reader threads repeatedly take O(1) snapshots and run
//! full BFS sweeps against them on their own traced contexts.
//!
//! Acceptance (recorded in EXPERIMENTS.md):
//! * sustained ingest ≥ 10⁶ edge updates/s *while* the readers query;
//! * readers never force a drain of the writer's delta log — verified
//!   from the reader traces, which must contain **zero** `flush`
//!   nodes (snapshot reads produce only `overlay` + kernel events);
//! * the background flusher/compactor, not the readers, is what keeps
//!   the run backlog bounded (reported from `snapshot_stats()`).
//!
//! Environment knobs: `GRB_INGEST_SECS` (default 3),
//! `GRB_INGEST_READERS` (default 2).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphblas_algorithms::bfs_multi;
use graphblas_core::prelude::*;
use graphblas_core::storage::delta;
use graphblas_gen::{rmat, RmatParams};

const SCALE: u32 = 12; // 4096 vertices

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Small deterministic PRNG so every run streams the same edges.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn main() {
    let secs = env_usize("GRB_INGEST_SECS", 3);
    let readers = env_usize("GRB_INGEST_READERS", 2);

    // Default run cap + a short flush window: the realistic streaming
    // configuration (size-triggered seals, time-triggered background
    // merges).
    delta::set_session_run_cap(None);
    graphblas_core::storage::snapshot::set_session_flush_window_ms(Some(50));

    // Seed graph so the BFS sweeps do real frontier work from step one.
    let g = rmat(SCALE, 8, RmatParams::default(), 11)
        .dedup()
        .without_self_loops();
    let n = g.n;
    let m = Matrix::<bool>::new(n, n).unwrap();
    for &(u, v) in &g.edges {
        m.set(u, v, true).unwrap();
    }
    let _ = m.nvals().unwrap(); // settle the seed into the base

    let stop = Arc::new(AtomicBool::new(false));
    let updates = Arc::new(AtomicU64::new(0));
    let queries = Arc::new(AtomicU64::new(0));
    let reader_flush_nodes = Arc::new(AtomicU64::new(0));
    let overlay_snapshots = Arc::new(AtomicU64::new(0));
    let stall_ns_max = Arc::new(AtomicU64::new(0));

    let stats0 = snapshot_stats();
    let start = Instant::now();

    // The writer: full-speed point updates, ~10% tombstones. It never
    // calls a completion-forcing read; the background flusher owns the
    // merges.
    let writer = {
        let m = m.clone();
        let stop = stop.clone();
        let updates = updates.clone();
        std::thread::spawn(move || {
            let mut rng = Lcg(0xfeed);
            let t0 = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                // batch the stop check so the hot loop is pure ingest
                for _ in 0..1024 {
                    let u = (rng.next() as usize) % n;
                    let v = (rng.next() as usize) % n;
                    if rng.next().is_multiple_of(10) {
                        m.remove(u, v).unwrap();
                    } else {
                        m.set(u, v, true).unwrap();
                    }
                }
                updates.fetch_add(1024, Ordering::Relaxed);
            }
            // the writer's own active window: the joins below wait out
            // the readers' last sweeps, which must not dilute the rate
            t0.elapsed().as_secs_f64()
        })
    };

    // The readers: snapshot → frozen handle → multi-source BFS on a
    // private traced context. The trace is the proof of isolation:
    // snapshot reads must schedule only overlay merges and kernels,
    // never a `flush` of the live log.
    let handles: Vec<_> = (0..readers.max(1))
        .map(|r| {
            let m = m.clone();
            let stop = stop.clone();
            let queries = queries.clone();
            let flushes = reader_flush_nodes.clone();
            let overlays = overlay_snapshots.clone();
            let stall = stall_ns_max.clone();
            std::thread::spawn(move || {
                let ctx = Context::nonblocking();
                ctx.enable_trace(true);
                let mut rng = Lcg(0xace + r as u64);
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let snap = m.snapshot(); // O(1), never blocks on the writer
                    if snap.run_count() > 0 {
                        // taken atop live sealed runs: this sweep reads
                        // through a (base, runs) overlay, not a
                        // quiesced base
                        overlays.fetch_add(1, Ordering::Relaxed);
                    }
                    let frozen = snap.to_matrix();
                    let sources: Vec<usize> = (0..4).map(|_| (rng.next() as usize) % n).collect();
                    bfs_multi(&ctx, &frozen, &sources).unwrap();
                    let dt = t0.elapsed().as_nanos() as u64;
                    stall.fetch_max(dt, Ordering::Relaxed);
                    queries.fetch_add(1, Ordering::Relaxed);
                    // The trace is the no-stall proof: a regression
                    // that re-introduced completion-forcing reads
                    // would put a `flush` node in the reader's DAG.
                    for e in ctx.take_trace() {
                        if e.kind == "flush" {
                            flushes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(secs as u64));
    stop.store(true, Ordering::Relaxed);
    let writer_secs = writer.join().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let updates = updates.load(Ordering::Relaxed);
    let queries = queries.load(Ordering::Relaxed);
    let flushes = reader_flush_nodes.load(Ordering::Relaxed);
    let overlays = overlay_snapshots.load(Ordering::Relaxed);
    let stats1 = snapshot_stats();
    let rate = updates as f64 / writer_secs;
    let final_stats = m.delta_stats();

    println!(
        "ingest_query (e11): 1 writer + {readers} snapshot-BFS readers on rmat scale {SCALE}, {elapsed:.1}s"
    );
    println!(
        "  ingest: {updates} updates, {:.2}M updates/s (sustained, while readers query)",
        rate / 1e6
    );
    println!(
        "  readers: {queries} BFS sweeps (4 sources each), max sweep latency {:.1} ms",
        stall_ns_max.load(Ordering::Relaxed) as f64 / 1e6
    );
    println!(
        "  isolation: reader-issued flush nodes = {flushes} (must be 0), sweeps atop live sealed runs = {overlays}/{queries}"
    );
    println!(
        "  background: {} flushes, {} compactions ({} KiB merged), {} snapshots taken, final backlog: {} runs / {} pending",
        stats1.background_flushes - stats0.background_flushes,
        stats1.compactions - stats0.compactions,
        (stats1.compacted_bytes - stats0.compacted_bytes) / 1024,
        stats1.snapshots_taken - stats0.snapshots_taken,
        final_stats.run_count,
        final_stats.pending_len,
    );

    assert!(updates > 0 && queries > 0, "both sides must make progress");
    assert_eq!(
        flushes, 0,
        "snapshot readers must never force a drain of the writer's log"
    );
    assert!(
        overlays > 0,
        "at least one sweep should read through a (base, runs) overlay, not a quiesced base"
    );
    assert!(
        rate >= 1e6,
        "sustained ingest fell below 10^6 updates/s: {rate:.0}"
    );
}
