//! MVCC snapshot isolation over the delta logs (ROADMAP: streaming
//! ingest-while-query).
//!
//! A reader takes an **epoch-versioned snapshot** of a handle in O(1):
//! the Arc'd backing value node plus Arc clones of the sealed delta
//! runs at that epoch ([`crate::storage::delta::DeltaLog::runs_snapshot`]
//! — nothing is drained, nothing is copied). The snapshot is immutable
//! forever: writers keep appending to the log's unsorted tail, the
//! background flusher keeps merging runs into new base nodes, and
//! compaction keeps rewriting the *log's* run vector — none of which
//! can touch the snapshot's pinned node or its cloned run Arcs. Readers
//! never drain a writer's log and writers never wait for a reader.
//!
//! Reads against a snapshot come in two strengths:
//!
//! * **point probes** ([`MatrixSnapshot::get`]) — binary-search the runs
//!   newest-first (runs are seq-disjoint, so the youngest run holding
//!   the key is the program-order-latest mutation), falling back to the
//!   base value; no merge is materialized.
//! * **bulk reads and kernel capture** ([`MatrixSnapshot::nvals`],
//!   [`MatrixSnapshot::extract_tuples`], [`MatrixSnapshot::to_matrix`])
//!   — force the snapshot's *overlay node*, a deferred DAG node that
//!   k-way merges `(base, runs)` with the flush kernel
//!   ([`crate::kernel::merge`]). The object layer memoizes one overlay
//!   node per epoch, so concurrent readers at the same epoch share a
//!   single merge.
//!
//! The module also hosts the **background flusher** — a lazily-spawned
//! daemon that applies the time/size-windowed auto-flush policy (the
//! replacement for "every completion-forcing read drains the log"): the
//! object layer queues a job when a log crosses the size threshold or
//! the configured time window, and the flusher resolves + forces the
//! flush node, whose merge fans out over the shared worker pool like
//! any other kernel. It also aggregates process-wide telemetry
//! ([`snapshot_stats`]) for the server's `STATS` surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::exec::{force, Completable, Node};
use crate::index::Index;
use crate::object::handle::{Handle, Stored};
use crate::object::{Matrix, Vector};
use crate::scalar::Scalar;
use crate::storage::delta::{DeltaOp, Run};
use crate::storage::engine::MatrixStore;
use crate::storage::vec::SparseVec;

// ----- process-wide telemetry -----

static SNAPSHOTS_TAKEN: AtomicU64 = AtomicU64::new(0);
static SNAPSHOTS_ACTIVE: AtomicU64 = AtomicU64::new(0);
static LAST_EPOCH: AtomicU64 = AtomicU64::new(0);
static COMPACTIONS: AtomicU64 = AtomicU64::new(0);
static COMPACTED_ENTRIES: AtomicU64 = AtomicU64::new(0);
static COMPACTED_BYTES: AtomicU64 = AtomicU64::new(0);
static BACKGROUND_FLUSHES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the process-wide snapshot/compaction
/// counters (the server's `STATS` observability surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots ever taken.
    pub snapshots_taken: u64,
    /// Snapshots currently alive (taken minus dropped).
    pub snapshots_active: u64,
    /// Epoch of the most recently taken snapshot.
    pub last_read_epoch: u64,
    /// Run-compaction passes performed across all delta logs.
    pub compactions: u64,
    /// Entries consumed by those compactions.
    pub compacted_entries: u64,
    /// Approximate bytes merged by those compactions.
    pub compacted_bytes: u64,
    /// Delta flushes completed by the background flusher.
    pub background_flushes: u64,
}

/// Read the process-wide snapshot/compaction counters.
pub fn snapshot_stats() -> SnapshotStats {
    SnapshotStats {
        snapshots_taken: SNAPSHOTS_TAKEN.load(Ordering::Relaxed),
        snapshots_active: SNAPSHOTS_ACTIVE.load(Ordering::Relaxed),
        last_read_epoch: LAST_EPOCH.load(Ordering::Relaxed),
        compactions: COMPACTIONS.load(Ordering::Relaxed),
        compacted_entries: COMPACTED_ENTRIES.load(Ordering::Relaxed),
        compacted_bytes: COMPACTED_BYTES.load(Ordering::Relaxed),
        background_flushes: BACKGROUND_FLUSHES.load(Ordering::Relaxed),
    }
}

pub(crate) fn note_compaction(entries: usize, bytes: usize) {
    COMPACTIONS.fetch_add(1, Ordering::Relaxed);
    COMPACTED_ENTRIES.fetch_add(entries as u64, Ordering::Relaxed);
    COMPACTED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

pub(crate) fn note_background_flush() {
    BACKGROUND_FLUSHES.fetch_add(1, Ordering::Relaxed);
}

fn note_snapshot(epoch: u64) -> ActiveGuard {
    SNAPSHOTS_TAKEN.fetch_add(1, Ordering::Relaxed);
    SNAPSHOTS_ACTIVE.fetch_add(1, Ordering::Relaxed);
    LAST_EPOCH.fetch_max(epoch, Ordering::Relaxed);
    ActiveGuard
}

/// RAII decrement of the active-snapshot gauge.
#[derive(Debug)]
struct ActiveGuard;

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        SNAPSHOTS_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

// ----- the background flusher -----

struct FlushJob {
    due: Instant,
    run: Box<dyn FnOnce() + Send>,
}

/// Queue `run` to execute on the flusher daemon no earlier than `delay`
/// from now. Jobs execute in queue order on one thread — the *merges*
/// they trigger still fan row chunks onto the shared worker pool, so a
/// single flusher thread does not serialize the actual work.
pub(crate) fn schedule_flush(delay: Duration, run: Box<dyn FnOnce() + Send>) {
    static SENDER: OnceLock<Mutex<mpsc::Sender<FlushJob>>> = OnceLock::new();
    let sender = SENDER.get_or_init(|| {
        let (tx, rx) = mpsc::channel::<FlushJob>();
        std::thread::Builder::new()
            .name("grb-flusher".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let now = Instant::now();
                    if job.due > now {
                        std::thread::sleep(job.due - now);
                    }
                    (job.run)();
                }
            })
            .expect("spawn background flusher");
        Mutex::new(tx)
    });
    let job = FlushJob {
        due: Instant::now() + delay,
        run,
    };
    let _ = sender.lock().unwrap_or_else(|e| e.into_inner()).send(job);
}

// ----- snapshot handles -----

/// Probe `runs` for `key`, newest run first. `Some(op)` is the
/// program-order-latest pending mutation of that key at the snapshot's
/// epoch; `None` means the base value stands.
fn probe_runs<K: Copy + Ord, T: Clone>(runs: &[Run<K, T>], key: K) -> Option<DeltaOp<T>> {
    for run in runs.iter().rev() {
        if let Ok(pos) = run.binary_search_by(|e| e.key.cmp(&key)) {
            return Some(run[pos].op.clone());
        }
    }
    None
}

/// The immutable, epoch-versioned read view of one object that
/// [`MatrixSnapshot`] and [`VectorSnapshot`] wrap with dimensions.
pub(crate) struct Snapshot<S: Stored> {
    epoch: u64,
    base: Arc<Node<S>>,
    runs: Vec<Run<S::Key, S::Elem>>,
    /// The epoch's overlay node (`base` itself when no updates were
    /// pending) — shared with every other snapshot and kernel capture at
    /// this epoch through the handle's overlay memo.
    node: Arc<Node<S>>,
    policy: S::Policy,
    _guard: ActiveGuard,
}

impl<S: Stored> Snapshot<S> {
    pub(crate) fn new(
        epoch: u64,
        base: Arc<Node<S>>,
        runs: Vec<Run<S::Key, S::Elem>>,
        node: Arc<Node<S>>,
        policy: S::Policy,
    ) -> Self {
        Snapshot {
            epoch,
            base,
            runs,
            node,
            policy,
            _guard: note_snapshot(epoch),
        }
    }

    /// The snapshot's value, overlay-merged and memoized. Forces the
    /// overlay node (and the base cone under it) — never the source
    /// handle's log.
    fn store(&self) -> Result<Arc<S>> {
        force(&(self.node.clone() as Arc<dyn Completable>))?;
        self.node.ready_storage()
    }

    /// Point probe: pending runs first (newest wins), then the base
    /// value. Never materializes the overlay merge.
    fn get(&self, key: S::Key) -> Result<Option<S::Elem>> {
        match probe_runs(&self.runs, key) {
            Some(DeltaOp::Put(v)) => Ok(Some(v)),
            Some(DeltaOp::Del) => Ok(None),
            None => {
                force(&(self.base.clone() as Arc<dyn Completable>))?;
                Ok(self.base.ready_storage()?.get(key).cloned())
            }
        }
    }

    /// A fresh object whose value *is* this snapshot. O(1): it wraps the
    /// shared overlay node; nothing is merged until a kernel forces it,
    /// and the merge is shared with every other view of this epoch.
    fn to_handle(&self) -> Handle<S> {
        Handle::new(self.node.clone(), self.policy)
    }
}

/// An immutable, epoch-versioned read view of a [`Matrix`] — the
/// `GxB`-style snapshot handle. Cheap to take (Arc clones only), safe to
/// hold across any amount of concurrent writing, flushing, and
/// compaction on the source handle.
pub struct MatrixSnapshot<T: Scalar> {
    nrows: Index,
    ncols: Index,
    inner: Snapshot<MatrixStore<T>>,
}

impl<T: Scalar> MatrixSnapshot<T> {
    pub(crate) fn new(nrows: Index, ncols: Index, inner: Snapshot<MatrixStore<T>>) -> Self {
        MatrixSnapshot {
            nrows,
            ncols,
            inner,
        }
    }

    /// Row count of the snapshotted matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Column count of the snapshotted matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// The delta-log epoch this snapshot pinned. Two snapshots of one
    /// object with equal epochs are views of the identical value.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Sealed runs pinned by this snapshot (observability).
    pub fn run_count(&self) -> usize {
        self.inner.runs.len()
    }

    /// Stored-element count at the snapshot's epoch.
    pub fn nvals(&self) -> Result<usize> {
        Ok(self.inner.store()?.nvals())
    }

    /// Point probe at the snapshot's epoch: pending runs first (newest
    /// wins), then the base value. Never materializes the overlay merge.
    pub fn get(&self, i: Index, j: Index) -> Result<Option<T>> {
        if i >= self.nrows || j >= self.ncols {
            return Err(Error::InvalidIndex(format!(
                "({i}, {j}) out of bounds for {}x{} matrix snapshot",
                self.nrows, self.ncols
            )));
        }
        self.inner.get((i, j))
    }

    /// All stored tuples at the snapshot's epoch, row-major.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, Index, T)>> {
        self.extract_tuples_with(T::clone)
    }

    /// [`MatrixSnapshot::extract_tuples`] with each value mapped by `f`
    /// as it is read.
    pub fn extract_tuples_with<U>(&self, f: impl FnMut(&T) -> U) -> Result<Vec<(Index, Index, U)>> {
        Ok(self.inner.store()?.map_tuples(f))
    }

    /// Per-row stored-element counts **at the snapshot's epoch**. The
    /// overlay merge materializes its own store, so this memoizes on
    /// the snapshot's value and can never observe degrees cached after
    /// a later drain of the source handle (and vice versa) — the
    /// property-cache half of snapshot isolation.
    pub fn row_degrees(&self) -> Result<Arc<[usize]>> {
        Ok(self.inner.store()?.row_degrees())
    }

    /// Per-column stored-element counts at the snapshot's epoch; see
    /// [`MatrixSnapshot::row_degrees`].
    pub fn col_degrees(&self) -> Result<Arc<[usize]>> {
        Ok(self.inner.store()?.col_degrees())
    }

    /// A fresh [`Matrix`] handle whose value *is* this snapshot — the
    /// bridge into every kernel and algorithm that takes `&Matrix<T>`
    /// (the server runs BFS/PageRank on these). O(1): the handle wraps
    /// the shared overlay node; nothing is merged until a kernel forces
    /// it, and the merge is shared with every other view of this epoch.
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::over(self.nrows, self.ncols, self.inner.to_handle())
    }
}

impl<T: Scalar> std::fmt::Debug for MatrixSnapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatrixSnapshot<{}x{}@{}>",
            self.nrows,
            self.ncols,
            self.epoch()
        )
    }
}

/// An immutable, epoch-versioned read view of a [`Vector`]; see
/// [`MatrixSnapshot`].
pub struct VectorSnapshot<T: Scalar> {
    n: Index,
    inner: Snapshot<SparseVec<T>>,
}

impl<T: Scalar> VectorSnapshot<T> {
    pub(crate) fn new(n: Index, inner: Snapshot<SparseVec<T>>) -> Self {
        VectorSnapshot { n, inner }
    }

    /// Size of the snapshotted vector.
    pub fn size(&self) -> Index {
        self.n
    }

    /// The delta-log epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Sealed runs pinned by this snapshot (observability).
    pub fn run_count(&self) -> usize {
        self.inner.runs.len()
    }

    /// Stored-element count at the snapshot's epoch.
    pub fn nvals(&self) -> Result<usize> {
        Ok(self.inner.store()?.nvals())
    }

    /// Point probe at the snapshot's epoch; see [`MatrixSnapshot::get`].
    pub fn get(&self, i: Index) -> Result<Option<T>> {
        if i >= self.n {
            return Err(Error::InvalidIndex(format!(
                "index {i} out of bounds for vector snapshot of size {}",
                self.n
            )));
        }
        self.inner.get(i)
    }

    /// All stored tuples at the snapshot's epoch.
    pub fn extract_tuples(&self) -> Result<Vec<(Index, T)>> {
        self.extract_tuples_with(T::clone)
    }

    /// [`VectorSnapshot::extract_tuples`] with each value mapped by `f`
    /// as it is read.
    pub fn extract_tuples_with<U>(&self, f: impl FnMut(&T) -> U) -> Result<Vec<(Index, U)>> {
        Ok(self.inner.store()?.map_tuples(f))
    }

    /// A fresh [`Vector`] handle whose value is this snapshot; see
    /// [`MatrixSnapshot::to_matrix`].
    pub fn to_vector(&self) -> Vector<T> {
        Vector::over(self.n, self.inner.to_handle())
    }
}

impl<T: Scalar> std::fmt::Debug for VectorSnapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VectorSnapshot<{}@{}>", self.n, self.epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flusher_runs_jobs_after_their_delay() {
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        schedule_flush(
            Duration::from_millis(10),
            Box::new(move || {
                let _ = tx.send(t0.elapsed());
            }),
        );
        let elapsed = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("flusher ran the job");
        assert!(
            elapsed >= Duration::from_millis(10),
            "ran early: {elapsed:?}"
        );
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let before = snapshot_stats();
        note_compaction(100, 1600);
        note_background_flush();
        let g = note_snapshot(42);
        let mid = snapshot_stats();
        assert!(mid.compactions > before.compactions);
        assert!(mid.compacted_entries >= before.compacted_entries + 100);
        assert!(mid.background_flushes > before.background_flushes);
        assert!(mid.snapshots_taken > before.snapshots_taken);
        assert!(mid.last_read_epoch >= 42);
        drop(g);
        // active gauge decremented on drop (other tests may hold their
        // own guards concurrently, so compare against `mid`)
        assert!(snapshot_stats().snapshots_active < mid.snapshots_active + 1);
    }
}
