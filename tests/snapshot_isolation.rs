//! PR acceptance property for MVCC snapshots (`storage::snapshot`): a
//! snapshot taken at epoch E observes **bitwise** the state at E — no
//! matter how many writes, forcing reads, background flushes, or run
//! compactions happen afterwards — across execution modes, storage
//! formats, and intra-kernel parallelism degrees, with NaN / ±∞ / -0.0
//! payloads included. The reference is an independently-maintained
//! shadow map, so the check is not circular through the overlay merge.
//!
//! Every test pins the session delta run cap to 3 so even
//! proptest-sized programs seal runs and trip the LSM compactor.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;

use common::{at_degree, contexts, fval, matrix_bits};
use graphblas_core::options;
use graphblas_core::prelude::*;
use proptest::prelude::*;

const N: usize = 16;
const DEGREES: [usize; 3] = [1, 2, 8];

/// Seal runs aggressively so snapshots routinely span several sealed
/// runs plus an unsorted tail, and compaction actually fires.
fn tiny_runs() {
    options::set_run_cap(Some(3));
    // The cap reaches the delta log: eleven pending updates at cap 3
    // seal at least two sorted runs (the default of 4096 would seal none).
    let m = Matrix::<f64>::new(8, 8).unwrap();
    for k in 0..11usize {
        m.set(k % 8, k / 8, k as f64).unwrap();
    }
    let stats = m.delta_stats();
    assert!(stats.run_count >= 2, "cap 3 sealed no runs: {stats:?}");
}

/// One step of a random program over a matrix.
#[derive(Debug, Clone)]
enum Step {
    /// Pending-buffer append.
    Set(usize, usize, u8),
    /// Tombstone append.
    Remove(usize, usize),
    /// Take a snapshot here; it must forever read the state at this
    /// point.
    Snap,
    /// A completion-forcing read: drains the log and installs a new
    /// base — live snapshots must not notice.
    Force,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::Set(i, j, c)),
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::Set(i, j, c)),
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::Set(i, j, c)),
        (0..N, 0..N).prop_map(|(i, j)| Step::Remove(i, j)),
        Just(Step::Snap),
        Just(Step::Force),
    ]
}

type Shadow = BTreeMap<(usize, usize), u64>;

fn shadow_tuples(s: &Shadow) -> Vec<(usize, usize, u64)> {
    s.iter().map(|(&(i, j), &b)| (i, j, b)).collect()
}

fn snapshot_bits(s: &MatrixSnapshot<f64>) -> Vec<(usize, usize, u64)> {
    s.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, j, v)| (i, j, v.to_bits()))
        .collect()
}

/// Interpret `steps`, pairing every snapshot with the shadow state at
/// its instant; verify every pair after the whole program (writes,
/// forces, compactions) has run.
fn check_program(steps: &[Step], grid: Option<(usize, usize)>) -> std::result::Result<(), String> {
    let m = Matrix::<f64>::new(N, N).unwrap();
    if let Some((r, c)) = grid {
        m.set_tile_shape(r, c).unwrap();
    }
    let mut model = Shadow::new();
    let mut snaps: Vec<(MatrixSnapshot<f64>, Shadow)> = Vec::new();
    for step in steps {
        match *step {
            Step::Set(i, j, c) => {
                m.set(i, j, fval(c)).unwrap();
                model.insert((i, j), fval(c).to_bits());
            }
            Step::Remove(i, j) => {
                m.remove(i, j).unwrap();
                model.remove(&(i, j));
            }
            Step::Snap => snaps.push((m.snapshot(), model.clone())),
            Step::Force => {
                let _ = m.nvals().unwrap();
            }
        }
    }
    // One final snapshot so every program checks at least one.
    snaps.push((m.snapshot(), model.clone()));
    let _ = m.nvals().unwrap(); // drain whatever is still pending
    for (k, (snap, at)) in snaps.iter().enumerate() {
        let want = shadow_tuples(at);
        if snap.nvals().unwrap() != at.len() {
            return Err(format!("snapshot {k}: nvals diverged"));
        }
        let got = snapshot_bits(snap);
        if got != want {
            return Err(format!(
                "snapshot {k}: tuples diverged\n got {got:?}\nwant {want:?}"
            ));
        }
        // The frozen-handle path the server uses: to_matrix() shares
        // the overlay node with the snapshot and must read the same.
        let frozen = snap.to_matrix();
        if matrix_bits(&frozen) != want {
            return Err(format!("snapshot {k}: to_matrix() diverged"));
        }
        // Point probes walk sealed runs newest-first, not the merge.
        for &(i, j, bits) in want.iter().take(4) {
            if snap.get(i, j).unwrap().map(f64::to_bits) != Some(bits) {
                return Err(format!("snapshot {k}: get({i},{j}) diverged"));
            }
        }
    }
    Ok(())
}

/// Shadow degrees: per-row / per-column stored-element counts of a
/// shadow state.
fn shadow_degrees(s: &Shadow) -> (Vec<usize>, Vec<usize>) {
    let (mut r, mut c) = (vec![0usize; N], vec![0usize; N]);
    for &(i, j) in s.keys() {
        r[i] += 1;
        c[j] += 1;
    }
    (r, c)
}

/// The property-cache half of snapshot isolation: the degree vectors a
/// snapshot reports are computed against (and memoized on) the
/// snapshot's own overlay-merged store, so a snapshot taken before a
/// drain must never observe degrees cached after it — no matter how
/// aggressively the live handle's caches are warmed in between.
fn check_degree_program(
    steps: &[Step],
    grid: Option<(usize, usize)>,
) -> std::result::Result<(), String> {
    let m = Matrix::<f64>::new(N, N).unwrap();
    if let Some((r, c)) = grid {
        m.set_tile_shape(r, c).unwrap();
    }
    let mut model = Shadow::new();
    let mut snaps: Vec<(MatrixSnapshot<f64>, Shadow)> = Vec::new();
    for step in steps {
        match *step {
            Step::Set(i, j, c) => {
                m.set(i, j, fval(c)).unwrap();
                model.insert((i, j), fval(c).to_bits());
            }
            Step::Remove(i, j) => {
                m.remove(i, j).unwrap();
                model.remove(&(i, j));
            }
            Step::Snap => snaps.push((m.snapshot(), model.clone())),
            Step::Force => {
                // Drain, then warm the live handle's property caches so
                // a leaky snapshot would have stale degrees to observe.
                let _ = m.nvals().unwrap();
                let _ = m.row_degrees().unwrap();
                let _ = m.col_degrees().unwrap();
            }
        }
    }
    snaps.push((m.snapshot(), model.clone()));
    let _ = m.nvals().unwrap();
    let live_r = m.row_degrees().unwrap();
    let live_c = m.col_degrees().unwrap();
    let (want_r, want_c) = shadow_degrees(&model);
    if &*live_r != want_r.as_slice() || &*live_c != want_c.as_slice() {
        return Err("live handle degrees diverged from final state".into());
    }
    for (k, (snap, at)) in snaps.iter().enumerate() {
        let (want_r, want_c) = shadow_degrees(at);
        let got_r = snap.row_degrees().map_err(|e| e.to_string())?;
        if &*got_r != want_r.as_slice() {
            return Err(format!(
                "snapshot {k}: row degrees diverged\n got {got_r:?}\nwant {want_r:?}"
            ));
        }
        let got_c = snap.col_degrees().map_err(|e| e.to_string())?;
        if &*got_c != want_c.as_slice() {
            return Err(format!(
                "snapshot {k}: col degrees diverged\n got {got_c:?}\nwant {want_c:?}"
            ));
        }
        // Second read exercises the memoized path.
        if snap.row_degrees().map_err(|e| e.to_string())? != got_r {
            return Err(format!("snapshot {k}: memoized row degrees unstable"));
        }
    }
    Ok(())
}

const GRIDS: [Option<(usize, usize)>; 2] = [None, Some((4, 4))];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: at every (mode, grid, degree), a
    /// snapshot at epoch E reads bitwise the shadow state at E.
    #[test]
    fn snapshot_reads_the_state_at_its_epoch(
        steps in proptest::collection::vec(step_strategy(), 1..32),
    ) {
        tiny_runs();
        for ctx in contexts() {
            // Snapshots are context-independent, but run the program
            // under each context's completion discipline anyway: in
            // blocking mode Force has already drained, in nonblocking
            // the log is deep.
            let _ = &ctx;
            for grid in GRIDS {
                for k in DEGREES {
                    if let Err(msg) = at_degree(k, || check_program(&steps, grid)) {
                        panic!(
                            "mode {:?} grid {:?} degree {}: {}",
                            ctx.mode(), grid, k, msg
                        );
                    }
                }
            }
        }
    }

    /// The cached-property face of the same property: degree vectors
    /// read through a snapshot reflect the snapshot's epoch, not the
    /// live handle's post-drain caches.
    #[test]
    fn snapshot_degrees_are_isolated_from_later_drains(
        steps in proptest::collection::vec(step_strategy(), 1..32),
    ) {
        tiny_runs();
        for grid in GRIDS {
            for k in DEGREES {
                if let Err(msg) = at_degree(k, || check_degree_program(&steps, grid)) {
                    panic!("grid {:?} degree {}: {}", grid, k, msg);
                }
            }
        }
    }

    /// A snapshot of a vector behaves identically (the vector-side
    /// overlay shares no code path accidents with the matrix side).
    #[test]
    fn vector_snapshot_reads_the_state_at_its_epoch(
        raw in proptest::collection::vec((0..N, any::<u8>(), any::<bool>()), 1..48),
    ) {
        tiny_runs();
        let v = Vector::<f64>::new(N).unwrap();
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        let mut snaps = Vec::new();
        for (step, &(i, c, put)) in raw.iter().enumerate() {
            if put {
                v.set(i, fval(c)).unwrap();
                model.insert(i, fval(c).to_bits());
            } else {
                v.remove(i).unwrap();
                model.remove(&i);
            }
            if step % 5 == 4 {
                snaps.push((v.snapshot(), model.clone()));
            }
            if step % 11 == 10 {
                let _ = v.nvals().unwrap();
            }
        }
        snaps.push((v.snapshot(), model.clone()));
        let _ = v.nvals().unwrap();
        for (snap, at) in &snaps {
            let want: Vec<(usize, u64)> = at.iter().map(|(&i, &b)| (i, b)).collect();
            let got: Vec<(usize, u64)> = snap
                .extract_tuples()
                .unwrap()
                .into_iter()
                .map(|(i, x)| (i, x.to_bits()))
                .collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(snap.nvals().unwrap(), at.len());
        }
    }
}

/// What the concurrent test needs of a collection, so `Matrix` and
/// `Vector` run the same body. Positions are linear: `p` is index `p` of
/// a vector, cell `(p / SIDE, p % SIDE)` of a matrix.
trait Collection: Clone + Send + 'static {
    type Snap;
    /// An empty collection of `SIDE * SIDE` positions.
    fn create() -> Self;
    fn set_at(&self, p: usize, v: f64);
    fn remove_at(&self, p: usize);
    /// A completion-forcing read.
    fn force(&self);
    fn snap(&self) -> Self::Snap;
    /// `(position, value bits)` of every stored element, ascending.
    fn snap_bits(s: &Self::Snap) -> Vec<(usize, u64)>;
    fn snap_nvals(s: &Self::Snap) -> usize;
    fn snap_get(s: &Self::Snap, p: usize) -> Option<f64>;
}

const SIDE: usize = 64;

impl Collection for Matrix<f64> {
    type Snap = MatrixSnapshot<f64>;
    fn create() -> Self {
        Matrix::new(SIDE, SIDE).unwrap()
    }
    fn set_at(&self, p: usize, v: f64) {
        self.set(p / SIDE, p % SIDE, v).unwrap()
    }
    fn remove_at(&self, p: usize) {
        self.remove(p / SIDE, p % SIDE).unwrap()
    }
    fn force(&self) {
        self.nvals().unwrap();
    }
    fn snap(&self) -> Self::Snap {
        self.snapshot()
    }
    fn snap_bits(s: &Self::Snap) -> Vec<(usize, u64)> {
        let bits = snapshot_bits(s).into_iter();
        bits.map(|(i, j, b)| (i * SIDE + j, b)).collect()
    }
    fn snap_nvals(s: &Self::Snap) -> usize {
        s.nvals().unwrap()
    }
    fn snap_get(s: &Self::Snap, p: usize) -> Option<f64> {
        s.get(p / SIDE, p % SIDE).unwrap()
    }
}

impl Collection for Vector<f64> {
    type Snap = VectorSnapshot<f64>;
    fn create() -> Self {
        Vector::new(SIDE * SIDE).unwrap()
    }
    fn set_at(&self, p: usize, v: f64) {
        self.set(p, v).unwrap()
    }
    fn remove_at(&self, p: usize) {
        self.remove(p).unwrap()
    }
    fn force(&self) {
        self.nvals().unwrap();
    }
    fn snap(&self) -> Self::Snap {
        self.snapshot()
    }
    fn snap_bits(s: &Self::Snap) -> Vec<(usize, u64)> {
        let tuples = s.extract_tuples().unwrap().into_iter();
        tuples.map(|(i, v)| (i, v.to_bits())).collect()
    }
    fn snap_nvals(s: &Self::Snap) -> usize {
        s.nvals().unwrap()
    }
    fn snap_get(s: &Self::Snap, p: usize) -> Option<f64> {
        s.get(p).unwrap()
    }
}

/// The concurrent form of the property: a writer thread hammers the
/// collection (sets, removes, and forcing reads that install new bases)
/// while the reader re-reads one pinned snapshot; every read must see
/// the pre-writer state, and no read may block on the writer's merges.
fn snapshot_stable_under_concurrent_writes_and_forces_on<C: Collection>() {
    tiny_runs();
    let diag = |i: usize| i * SIDE + i;
    let c = C::create();
    for i in 0..SIDE {
        c.set_at(diag(i), i as f64);
    }
    let snap = c.snap();
    let want: Vec<(usize, u64)> = (0..SIDE).map(|i| (diag(i), (i as f64).to_bits())).collect();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let c = c.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut k = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let p = (k * 7 % SIDE) * SIDE + k * 13 % SIDE;
                if k % 5 == 4 {
                    c.remove_at(p);
                } else {
                    c.set_at(p, k as f64);
                }
                if k % 97 == 96 {
                    // Completion-forcing read: drains the log and
                    // installs a fresh base under the snapshot.
                    c.force();
                }
                k += 1;
            }
        })
    };

    for _ in 0..200 {
        assert_eq!(C::snap_bits(&snap), want);
        assert_eq!(C::snap_nvals(&snap), SIDE);
        assert_eq!(C::snap_get(&snap, diag(7)), Some(7.0));
        assert_eq!(C::snap_get(&snap, 1), None);
    }

    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn snapshot_stable_under_concurrent_writes_and_forces() {
    snapshot_stable_under_concurrent_writes_and_forces_on::<Matrix<f64>>();
    snapshot_stable_under_concurrent_writes_and_forces_on::<Vector<f64>>();
}

/// Same-epoch snapshots share one overlay node even when taken from
/// clones on different threads.
#[test]
fn cross_thread_snapshots_agree() {
    tiny_runs();
    let m = Matrix::<f64>::new(8, 8).unwrap();
    for i in 0..8 {
        m.set(i, 7 - i, 1.0 + i as f64).unwrap();
    }
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let m = m.clone();
            std::thread::spawn(move || {
                let s = m.snapshot();
                (s.epoch(), snapshot_bits(&s))
            })
        })
        .collect();
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.dedup();
    assert_eq!(
        results.len(),
        1,
        "all same-epoch snapshots read the same bits"
    );
}

/// Ingest-while-query isolation: one writer streams set/remove batches
/// into a matrix while a reader repeatedly runs snapshot → `to_matrix`
/// → `bfs_levels` on a traced nonblocking context. A snapshot read must
/// never drain the writer's log: taking one leaves the log's stats as
/// they were, and every `flush` node in the reader's trace must be one
/// the background flusher drained (a snapshot can capture the flusher's
/// still-pending flush node as its base, and the reader's BFS may be
/// the first to force it). Every BFS must equal a queue BFS over the
/// tuples of the snapshot it ran on. Both sides do a fixed amount of
/// work, so the test is bounded whatever the interleaving.
#[test]
fn snapshot_readers_never_flush_the_writers_log() {
    use graphblas_algorithms::bfs_levels;
    use graphblas_reference::{traversal, AdjGraph};
    use rand::{Rng, SeedableRng};

    const V: usize = 96;
    tiny_runs();
    // the ring goes straight into the base: no pushes, so no background
    // flush is queued before the writer starts
    let ring: Vec<(usize, usize, bool)> = (0..V).map(|u| (u, (u + 1) % V, true)).collect();
    let m = Matrix::<bool>::from_tuples(V, V, &ring).unwrap();

    // Six chords seal two runs at cap 3 and stay under both autoflush
    // triggers, so the first snapshot reads through a (base, runs)
    // overlay rather than a quiesced base, and nothing but the snapshot
    // can touch the log here.
    for u in 0..6 {
        m.set(u, (u + V / 2) % V, true).unwrap();
    }
    let before = m.delta_stats();
    let first = m.snapshot();
    assert_eq!(m.delta_stats(), before, "taking a snapshot drained the log");
    assert!(
        first.run_count() > 0,
        "the first snapshot spans sealed runs"
    );

    let writer = {
        let m = m.clone();
        std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xfeed);
            for _ in 0..400 {
                for _ in 0..16 {
                    let (u, v) = (rng.random_range(0..V), rng.random_range(0..V));
                    if rng.random_bool(0.1) {
                        m.remove(u, v).unwrap();
                    } else {
                        m.set(u, v, true).unwrap();
                    }
                }
            }
        })
    };

    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let mut snap = first;
    for round in 0..60 {
        // BFS first, so any merge the snapshot left pending runs inside
        // the traced wait()s rather than in the untraced tuple read
        let src = round * 7 % V;
        let got = bfs_levels(&ctx, &snap.to_matrix(), src).unwrap();
        let edges: Vec<(usize, usize)> = snap
            .extract_tuples()
            .unwrap()
            .into_iter()
            .map(|(u, v, _)| (u, v))
            .collect();
        let want = traversal::bfs_levels(&AdjGraph::from_edges(V, &edges), src);
        assert_eq!(got, want, "round {round}: BFS from {src} over its snapshot");
        let trace = ctx.take_trace();
        assert!(
            trace.iter().any(|e| e.kind == "vxm"),
            "round {round}: the traced BFS records its levels"
        );
        assert!(
            trace.iter().all(|e| e.kind != "flush" || e.by_flusher),
            "round {round}: a snapshot reader forced a drain of the writer's log"
        );
        snap = m.snapshot();
    }
    writer.join().unwrap();
}
