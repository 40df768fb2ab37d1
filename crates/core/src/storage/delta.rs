//! Pending-update buffers: the deferral of `setElement` /
//! `removeElement` that §IV of the paper explicitly licenses.
//!
//! A [`DeltaLog`] is an LSM-style log of point mutations against an
//! object's backing storage. [`DeltaLog::push`] is O(1) amortized: a
//! mutation lands in an unsorted tail, and when the tail reaches the
//! run cap ([`crate::options::run_cap`]) it is *sealed* into a sorted, per-key-
//! deduplicated run (last write wins within the run — the log's
//! dup-combining policy). Flushes — background auto-flushes
//! ([`crate::storage::snapshot`]) or handle-level completion-forcing
//! reads — drain the runs and merge them into the backing storage with
//! the k-way merge kernel (`crate::kernel::merge`); across runs, the
//! entry with the highest [`DeltaEntry::seq`] wins, so the merged value
//! is exactly what eager per-call application would have produced.
//! Readers that only need a consistent view never drain: they clone the
//! sealed runs ([`DeltaLog::runs_snapshot`]) at an [`DeltaLog::epoch`]
//! and overlay-merge on their own side.
//!
//! When sealing pushes the sealed-run count past [`MAX_RUNS`] the log
//! *compacts*, LSM-style: the adjacent pair of runs with the smallest
//! combined length is merged into one (runs are seq-disjoint and
//! oldest-first, so a pairwise merge of neighbours preserves cross-run
//! last-write-wins exactly). A size-ratio guard keeps compaction from
//! repeatedly rewriting a large run to absorb its small neighbours —
//! pairs whose larger side exceeds [`SIZE_RATIO`]× the smaller are
//! skipped until the run count reaches [`MAX_RUNS`]` + 2`, at which
//! point the guard is waived so the count stays hard-bounded at
//! `MAX_RUNS + 2`. Compaction bounds the k of every later k-way merge —
//! and of every snapshot overlay probe — without ever touching the
//! backing storage, and with write amplification linear (not quadratic)
//! in the number of sealed runs.
//!
//! Keys are generic: matrices log `(row, col)` (row-major order, the
//! order the CSR merge consumes), vectors log plain indices.

use std::sync::Arc;
use std::time::Duration;

use crate::options::run_cap;

/// Default tail length at which a delta log seals its unsorted tail into
/// a sorted run. Sealing is O(cap · log cap) every `cap` pushes, so
/// pushes stay O(log cap) ≈ O(1) amortized regardless of object size.
/// The effective cap is resolved per push by
/// [`crate::options::run_cap`].
pub const RUN_CAP: usize = 4096;

/// Sealed-run count above which a log compacts neighbouring runs. With
/// the [`SIZE_RATIO`] guard the count may float up to `MAX_RUNS + 2`
/// before a merge is forced.
pub const MAX_RUNS: usize = 8;

/// Compaction size-ratio guard: an adjacent pair is only merged when the
/// larger run is at most this many times the smaller one (or when the
/// run count has reached `MAX_RUNS + 2` and a merge must be forced).
/// Without the guard, a steady trickle of small sealed runs next to one
/// large run makes every compaction rewrite the large run — quadratic
/// total write amplification in the number of seals.
pub const SIZE_RATIO: usize = 4;

/// Pending-entry floor before a *time-windowed* background flush is
/// armed. Programs doing a handful of point updates (the unit-test
/// shape) stay strictly deferred-until-read; streaming ingest crosses
/// this within microseconds.
pub const AUTOFLUSH_MIN_PENDING: usize = 64;

/// Pending length (in units of the effective run cap) that triggers an
/// immediate background flush regardless of the time window — the size
/// half of the time/size auto-flush policy.
pub const AUTOFLUSH_RUN_FACTOR: usize = 4;

/// One pending point mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp<T> {
    /// `setElement`: insert or overwrite with this value.
    Put(T),
    /// `removeElement`: delete if stored (no-op on an absent element,
    /// as the C API specifies).
    Del,
}

/// One entry of the log: a key, the global arrival number (for
/// last-write-wins ordering across runs), and the operation.
#[derive(Debug, Clone)]
pub struct DeltaEntry<K, T> {
    pub key: K,
    /// Monotone per-log arrival counter; among entries for the same key
    /// the highest `seq` is the program-order-latest and wins the merge.
    pub seq: u64,
    pub op: DeltaOp<T>,
}

/// A sealed, key-sorted, per-key-deduplicated batch of pending updates.
pub type Run<K, T> = Arc<[DeltaEntry<K, T>]>;

/// Introspection snapshot of one handle's pending-update state
/// (`Matrix::delta_stats` / `Vector::delta_stats`; the server's `STATS`
/// sealed-run gauge sums `run_count` over its graphs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Pending entries (post-dedup within sealed runs).
    pub pending_len: usize,
    /// Sealed sorted runs held (tail not counted until sealed).
    pub run_count: usize,
    /// The log's current epoch.
    pub epoch: u64,
}

/// The pending-update buffer carried by each `Matrix`/`Vector` handle
/// group (shared by handle clones, like every other object property).
#[derive(Debug)]
pub struct DeltaLog<K, T> {
    next_seq: u64,
    /// Unsorted recent pushes, sealed into `runs` at [`run_cap`].
    tail: Vec<DeltaEntry<K, T>>,
    /// Sealed sorted runs, oldest first.
    runs: Vec<Run<K, T>>,
    /// Total entries across `tail` and `runs`.
    len: usize,
    /// A background flush for the current pending set is already queued
    /// (cleared on drain/clear, and by the flusher before it resolves).
    flush_scheduled: bool,
    /// Lifetime total of entries rewritten by this log's compactions
    /// (inputs to pairwise merges) — the per-log write-amplification
    /// meter the regression tests assert against.
    compacted_entries: usize,
    /// Same, in bytes (`compacted_entries × size_of::<DeltaEntry>`).
    compacted_bytes: usize,
}

impl<K, T> Default for DeltaLog<K, T> {
    fn default() -> Self {
        DeltaLog {
            next_seq: 0,
            tail: Vec::new(),
            runs: Vec::new(),
            len: 0,
            flush_scheduled: false,
            compacted_entries: 0,
            compacted_bytes: 0,
        }
    }
}

impl<K: Copy + Ord, T: Clone> DeltaLog<K, T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The log's *epoch*: the arrival number the next push will take.
    /// Strictly monotone over the log's lifetime, so (epoch, emptiness)
    /// uniquely identifies a pending set — the key the object layer
    /// memoizes snapshot overlays under.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.next_seq
    }

    /// Number of sealed runs currently held (observability; the tail,
    /// if any, is not counted until sealed).
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// `true` when no updates are pending (the fast path of every
    /// completion-forcing read).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending entries (post-dedup within sealed runs) —
    /// reported as `pending_len` on flush trace events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Append one pending mutation. O(1) amortized.
    pub fn push(&mut self, key: K, op: DeltaOp<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tail.push(DeltaEntry { key, seq, op });
        self.len += 1;
        if self.tail.len() >= run_cap() {
            self.seal();
        }
    }

    /// Sort the tail by key and deduplicate it (keep the latest entry
    /// per key — last write wins), then append it as a sealed run;
    /// compact if the run count outgrew [`MAX_RUNS`].
    fn seal(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.tail);
        self.len -= batch.len();
        // Stable by key: ties keep push order, so "last per key" below
        // is the program-order-latest. (`seq` is push order, but the
        // stable sort lets us dedup without comparing it.)
        batch.sort_by_key(|e| e.key);
        let mut dedup: Vec<DeltaEntry<K, T>> = Vec::with_capacity(batch.len());
        for e in batch {
            match dedup.last_mut() {
                Some(last) if last.key == e.key => *last = e,
                _ => dedup.push(e),
            }
        }
        self.len += dedup.len();
        self.runs.push(dedup.into());
        self.compact();
    }

    /// Tiered compaction: while more than [`MAX_RUNS`] runs are held,
    /// merge the adjacent pair with the smallest combined length into
    /// one run — but only pairs whose size ratio is within
    /// [`SIZE_RATIO`], so a big run is never rewritten just to absorb a
    /// tiny neighbour. If no pair qualifies the count is allowed to
    /// float, and once it exceeds `MAX_RUNS + 2` the guard is waived so
    /// the count stays hard-bounded. Runs are seq-disjoint and
    /// oldest-first, so in a neighbouring pair every right-run entry
    /// outranks every left-run entry — the pairwise merge keeps
    /// cross-run last-write-wins (and the original `seq` values)
    /// exactly.
    fn compact(&mut self) {
        while self.runs.len() > MAX_RUNS {
            let force = self.runs.len() > MAX_RUNS + 2;
            let candidate = (0..self.runs.len() - 1)
                .filter(|&i| {
                    let (a, b) = (self.runs[i].len(), self.runs[i + 1].len());
                    force || a.max(b) <= SIZE_RATIO * a.min(b).max(1)
                })
                .min_by_key(|&i| self.runs[i].len() + self.runs[i + 1].len());
            let Some(i) = candidate else {
                break; // every pair is lopsided; wait for the forced tier
            };
            let (old, new) = {
                let (a, b) = (&self.runs[i], &self.runs[i + 1]);
                let merged = merge_adjacent(a, b);
                ((a.len(), b.len()), merged)
            };
            let entries_in = old.0 + old.1;
            self.len -= entries_in;
            self.len += new.len();
            let bytes = entries_in * std::mem::size_of::<DeltaEntry<K, T>>();
            self.compacted_entries += entries_in;
            self.compacted_bytes += bytes;
            super::snapshot::note_compaction(entries_in, bytes);
            self.runs[i] = new;
            self.runs.remove(i + 1);
        }
    }

    /// Take every pending update as sealed sorted runs (oldest first),
    /// leaving the log empty. The caller hands the runs to the merge
    /// kernel.
    pub fn drain(&mut self) -> Vec<Run<K, T>> {
        self.seal();
        self.len = 0;
        self.flush_scheduled = false;
        std::mem::take(&mut self.runs)
    }

    /// Clone every pending update as sealed sorted runs (oldest first)
    /// **without draining**: the log keeps its entries and writers keep
    /// appending; the returned `Arc` runs are immutable forever. This is
    /// the O(1)-ish read side of snapshot isolation — the only non-
    /// constant cost is sealing the current tail, work the next seal
    /// would have done anyway.
    pub fn runs_snapshot(&mut self) -> Vec<Run<K, T>> {
        self.seal();
        self.runs.clone()
    }

    /// Discard every pending update (the object's value was overwritten
    /// wholesale — `clear`, or an operation writing the whole output —
    /// so the buffered point updates are dead by program order).
    pub fn clear(&mut self) {
        self.tail.clear();
        self.runs.clear();
        self.len = 0;
        self.flush_scheduled = false;
    }

    /// Auto-flush trigger, consulted by the object layer after each
    /// push: `Some(delay)` when a background flush should be queued
    /// (marking it queued), `None` otherwise. Size first — a pending set
    /// of [`AUTOFLUSH_RUN_FACTOR`] × cap flushes immediately; otherwise,
    /// once [`AUTOFLUSH_MIN_PENDING`] entries are pending and a time
    /// window is configured, flush after that window.
    pub fn autoflush_due(&mut self, window: Option<Duration>) -> Option<Duration> {
        if self.flush_scheduled {
            return None;
        }
        let due = if self.len >= AUTOFLUSH_RUN_FACTOR * run_cap() {
            Some(Duration::ZERO)
        } else if self.len >= AUTOFLUSH_MIN_PENDING {
            window
        } else {
            None
        };
        self.flush_scheduled = due.is_some();
        due
    }

    /// Clear the queued-flush mark (the flusher calls this right before
    /// resolving, so pushes arriving during the merge re-arm the next
    /// flush).
    pub fn clear_flush_scheduled(&mut self) {
        self.flush_scheduled = false;
    }

    /// Lifetime entries rewritten by compaction (merge inputs) — the
    /// write-amplification meter. Unlike the process-wide telemetry in
    /// `storage::snapshot`, this counter is per-log and race-free.
    #[inline]
    pub fn compacted_entries(&self) -> usize {
        self.compacted_entries
    }

    /// Lifetime bytes rewritten by compaction.
    #[inline]
    pub fn compacted_bytes(&self) -> usize {
        self.compacted_bytes
    }

    /// Introspection snapshot: pending length, sealed-run count, epoch.
    pub fn stats(&self) -> DeltaStats {
        DeltaStats {
            pending_len: self.len,
            run_count: self.runs.len(),
            epoch: self.next_seq,
        }
    }
}

/// Merge two adjacent sealed runs (each key-sorted and per-key unique;
/// every `b` entry younger than every `a` entry) into one.
fn merge_adjacent<K: Copy + Ord, T: Clone>(a: &Run<K, T>, b: &Run<K, T>) -> Run<K, T> {
    let mut out: Vec<DeltaEntry<K, T>> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x.key < y.key => {
                out.push(x.clone());
                i += 1;
            }
            (Some(x), Some(y)) if x.key == y.key => {
                out.push(y.clone()); // younger run wins the key
                i += 1;
                j += 1;
            }
            (_, Some(y)) => {
                out.push(y.clone());
                j += 1;
            }
            (Some(x), None) => {
                out.push(x.clone());
                i += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn puts(log: &mut DeltaLog<usize, i32>, keys: &[usize]) {
        for &k in keys {
            log.push(k, DeltaOp::Put(k as i32));
        }
    }

    #[test]
    fn empty_log() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert!(log.drain().is_empty());
    }

    #[test]
    fn drain_returns_sorted_runs() {
        let mut log = DeltaLog::new();
        puts(&mut log, &[5, 1, 3]);
        log.push(1, DeltaOp::Del);
        assert_eq!(log.len(), 4);
        let runs = log.drain();
        assert!(log.is_empty());
        assert_eq!(runs.len(), 1);
        let keys: Vec<usize> = runs[0].iter().map(|e| e.key).collect();
        // dedup kept only the latest entry for key 1 (the Del)
        assert_eq!(keys, vec![1, 3, 5]);
        assert!(matches!(runs[0][0].op, DeltaOp::Del));
    }

    #[test]
    fn dedup_is_last_write_wins() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        log.push(7, DeltaOp::Put(1));
        log.push(7, DeltaOp::Del);
        log.push(7, DeltaOp::Put(3));
        let runs = log.drain();
        assert_eq!(runs[0].len(), 1);
        assert!(matches!(runs[0][0].op, DeltaOp::Put(3)));
    }

    #[test]
    fn seq_is_monotone_across_runs() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        for i in 0..(RUN_CAP + 10) {
            log.push(i % 7, DeltaOp::Put(i as i32));
        }
        let runs = log.drain();
        assert!(runs.len() >= 2, "tail sealed at RUN_CAP plus remainder");
        // every entry of a later run outranks every entry of an earlier
        // one — the cross-run LWW tiebreak the merge kernel relies on
        let max_first = runs[0].iter().map(|e| e.seq).max().unwrap();
        let min_last = runs.last().unwrap().iter().map(|e| e.seq).min().unwrap();
        assert!(max_first < min_last);
    }

    #[test]
    fn len_tracks_dedup() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        for _ in 0..RUN_CAP {
            log.push(0, DeltaOp::Put(1)); // all the same key
        }
        // sealed into a single-entry run
        assert_eq!(log.len(), 1);
        log.push(1, DeltaOp::Put(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn compaction_bounds_run_count_and_preserves_lww() {
        let cap = run_cap();
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        // Fill MAX_RUNS + 4 full runs, revisiting key 0 in every run so
        // cross-run last-write-wins is actually exercised by compaction.
        let rounds = MAX_RUNS + 4;
        for r in 0..rounds {
            log.push(0, DeltaOp::Put(r as i32));
            for k in 0..cap - 1 {
                log.push(1 + r * cap + k, DeltaOp::Put(-1));
            }
        }
        assert!(
            log.run_count() <= MAX_RUNS,
            "compaction must bound runs, got {}",
            log.run_count()
        );
        // The surviving entry for key 0 must be the youngest write.
        let runs = log.drain();
        let survivors: Vec<&DeltaEntry<usize, i32>> = runs
            .iter()
            .flat_map(|r| r.iter())
            .filter(|e| e.key == 0)
            .collect();
        let youngest = survivors.iter().max_by_key(|e| e.seq).unwrap();
        assert!(matches!(youngest.op, DeltaOp::Put(v) if v == rounds as i32 - 1));
    }

    /// Push `len` entries with keys disjoint from every other run and
    /// seal them into one sorted run (sizes stay below the default
    /// [`RUN_CAP`], so no implicit seal interferes).
    fn sealed_run(log: &mut DeltaLog<usize, i32>, base: usize, len: usize) {
        for k in 0..len {
            log.push(base + k, DeltaOp::Put(k as i32));
        }
        log.seal();
    }

    #[test]
    fn lopsided_pairs_are_skipped_until_forced() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        // Alternate tiny/big so every adjacent pair violates the
        // SIZE_RATIO guard — the old compactor would rewrite a 64-entry
        // run to absorb each 4-entry neighbour.
        let (tiny, big) = (4usize, 64usize);
        for r in 0..MAX_RUNS + 1 {
            let len = if r % 2 == 0 { tiny } else { big };
            sealed_run(&mut log, r * 1000, len);
        }
        // One over MAX_RUNS, but no qualifying pair: the count floats
        // and nothing has been rewritten.
        assert_eq!(log.run_count(), MAX_RUNS + 1);
        assert_eq!(log.compacted_entries(), 0);

        sealed_run(&mut log, 9_000, tiny);
        sealed_run(&mut log, 10_000, big);
        // Past MAX_RUNS + 2 the guard is waived; the hard bound holds.
        assert!(
            log.run_count() <= MAX_RUNS + 2,
            "forced compaction must bound runs, got {}",
            log.run_count()
        );
        assert!(log.compacted_entries() > 0, "a forced merge happened");
        // Nothing was lost: all keys are disjoint, so every pushed
        // entry must survive the merges.
        let total: usize = log.drain().iter().map(|r| r.len()).sum();
        assert_eq!(total, 6 * tiny + 5 * big);
    }

    #[test]
    fn compaction_write_amplification_is_bounded() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        // Adversarial stream for the unguarded compactor: a steady
        // alternation of small sealed runs and large ones. Without the
        // ratio guard every seal past MAX_RUNS rewrites a large run to
        // absorb a tiny neighbour; with it, merges happen within size
        // tiers and total rewritten entries stay within a small
        // constant of the data actually pushed.
        let (tiny, big, rounds) = (8usize, 512usize, 12usize);
        let mut pushed = 0usize;
        for r in 0..rounds {
            sealed_run(&mut log, r * 10_000, tiny);
            pushed += tiny;
            sealed_run(&mut log, r * 10_000 + 5_000, big);
            pushed += big;
        }
        assert!(
            log.run_count() <= MAX_RUNS + 2,
            "run count must stay bounded, got {}",
            log.run_count()
        );
        assert!(
            log.compacted_entries() <= 4 * pushed,
            "write amplification {} entries for {} pushed exceeds 4x",
            log.compacted_entries(),
            pushed
        );
        assert_eq!(
            log.compacted_bytes(),
            log.compacted_entries() * std::mem::size_of::<DeltaEntry<usize, i32>>()
        );
        // Disjoint keys: every entry survives compaction.
        let total: usize = log.drain().iter().map(|r| r.len()).sum();
        assert_eq!(total, pushed);
    }

    #[test]
    fn stats_reports_pending_runs_epoch() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        puts(&mut log, &[4, 2]);
        let s = log.stats();
        assert_eq!(s.pending_len, 2);
        assert_eq!(s.run_count, 0, "tail not sealed yet");
        assert_eq!(s.epoch, 2);
        let _ = log.runs_snapshot(); // seals the tail, keeps entries
        let s = log.stats();
        assert_eq!(s.pending_len, 2);
        assert_eq!(s.run_count, 1);
        assert_eq!(s.epoch, 2, "reads do not advance the epoch");
    }

    #[test]
    fn clear_discards_everything() {
        let mut log: DeltaLog<usize, i32> = DeltaLog::new();
        puts(&mut log, &[1, 2, 3]);
        log.clear();
        assert!(log.is_empty());
        assert!(log.drain().is_empty());
        // pushes after clear still work and keep fresh seq numbers
        log.push(9, DeltaOp::Put(9));
        assert_eq!(log.len(), 1);
    }
}
