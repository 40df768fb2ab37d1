//! Ingest-while-query on MVCC snapshots (`storage::snapshot`): one
//! thread streams edge updates into a shared adjacency matrix while
//! another repeatedly snapshots it and runs BFS — neither ever waits
//! for the other.
//!
//! The writer's point updates land in the pending delta log (O(1)
//! appends, sealed into sorted runs, compacted LSM-style, merged into
//! the base by the background flusher). The reader's `snapshot()` is
//! O(1): it pins the base and the sealed runs at the current epoch, so
//! every query sees one frozen, consistent state no matter how fast
//! the writer moves.
//!
//! Run with: `cargo run --example streaming_demo`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphblas_algorithms::bfs_levels;
use graphblas_core::prelude::*;

const N: usize = 1024;

fn main() -> Result<()> {
    // Merge sealed runs in the background every 25 ms.
    graphblas_core::options::set_flush_window_ms(Some(25));

    // A ring so every vertex is reachable from vertex 0 from the start.
    let m = Matrix::<bool>::new(N, N)?;
    for i in 0..N {
        m.set(i, (i + 1) % N, true)?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicU64::new(0));

    // Ingest thread: stream chords into the ring at full speed.
    let ingest = {
        let m = m.clone();
        let stop = stop.clone();
        let written = written.clone();
        std::thread::spawn(move || -> Result<()> {
            let mut k = 1usize;
            while !stop.load(Ordering::Relaxed) {
                m.set(k % N, (k * k + 7) % N, true)?;
                written.fetch_add(1, Ordering::Relaxed);
                k += 1;
            }
            Ok(())
        })
    };

    // Query thread (here: the main thread). Each round pins a snapshot
    // and BFSes it; the epoch tells us how much the writer had ingested
    // at that instant.
    let ctx = Context::nonblocking();
    let t0 = Instant::now();
    for round in 0..8 {
        let snap = m.snapshot(); // O(1) — no flush, no waiting
        let frozen = snap.to_matrix();
        let levels = bfs_levels(&ctx, &frozen, 0)?;
        let reached = levels.iter().flatten().count();
        let deepest = levels.iter().flatten().max().copied().unwrap_or(0);
        println!(
            "[{:6.1} ms] round {round}: snapshot epoch {:>8} ({} sealed runs) — \
             BFS from 0 reaches {reached}/{N}, eccentricity {deepest}; \
             writer at {} updates",
            t0.elapsed().as_secs_f64() * 1e3,
            snap.epoch(),
            snap.run_count(),
            written.load(Ordering::Relaxed),
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    ingest.join().expect("ingest thread")?;

    let stats = snapshot_stats();
    println!(
        "\ningested {} updates; background: {} flushes, {} compactions; \
         final pending: {:?}",
        written.load(Ordering::Relaxed),
        stats.background_flushes,
        stats.compactions,
        m.delta_stats(),
    );
    // Chords only shrink distances: the ring keeps everything reachable.
    let final_levels = bfs_levels(&ctx, &m.snapshot().to_matrix(), 0)?;
    assert_eq!(final_levels.iter().flatten().count(), N);
    Ok(())
}
