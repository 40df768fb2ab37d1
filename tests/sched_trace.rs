//! Nonblocking `wait()` observed from the outside: execution traces
//! (`Context::take_trace`), compute-once semantics for shared
//! intermediates (diamond DAGs), and pending point updates traced as
//! overlay nodes.

use graphblas_core::prelude::*;
use rand::{Rng, SeedableRng};

const N: usize = 256;

fn random_matrix(seed: u64, density: f64) -> Matrix<i64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tuples = Vec::new();
    for i in 0..N {
        for j in 0..N {
            if rng.random_bool(density) {
                tuples.push((i, j, rng.random_range(-3i64..4)));
            }
        }
    }
    Matrix::from_tuples(N, N, &tuples).unwrap()
}

#[test]
fn trace_records_kinds_shapes_and_timings() {
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let a = random_matrix(1, 0.05);
    let b = random_matrix(2, 0.05);
    let c = Matrix::<i64>::new(N, N).unwrap();
    let s = Matrix::<i64>::new(N, N).unwrap();
    let d = Descriptor::default();
    ctx.mxm(&c, NoMask, NoAccum, plus_times::<i64>(), &a, &b, &d)
        .unwrap();
    ctx.ewise_add_matrix(&s, NoMask, NoAccum, Plus::new(), &a, &c, &d)
        .unwrap();
    ctx.wait().unwrap();
    let trace = ctx.take_trace();
    assert_eq!(trace.len(), 2);
    let mxm = trace.iter().find(|e| e.kind == "mxm").unwrap();
    let add = trace.iter().find(|e| e.kind == "eWiseAdd").unwrap();
    assert_eq!((mxm.rows, mxm.cols), (N, N));
    assert_eq!((add.rows, add.cols), (N, N));
    assert_eq!(mxm.nvals, c.nvals().unwrap());
    assert_eq!(add.nvals, s.nvals().unwrap());
    // program order is preserved in the seq stamps
    assert!(mxm.seq < add.seq);
    // one thread forces the roots in program order: the events do not
    // overlap in time
    for e in &trace {
        assert!(e.end_ns >= e.start_ns);
    }
    assert!(trace[0].end_ns <= trace[1].start_ns);
    // drained: a second take is empty, and tracing can be switched off
    assert!(ctx.take_trace().is_empty());
    ctx.enable_trace(false);
    ctx.mxm(&c, NoMask, NoAccum, plus_times::<i64>(), &a, &b, &d)
        .unwrap();
    ctx.wait().unwrap();
    assert!(ctx.take_trace().is_empty());
}

/// Diamond regression: an intermediate consumed by several later ops
/// must be computed exactly once, not once per consumer. The trace
/// gives the op-level evidence: one `transpose` event even though two
/// ops read its output.
#[test]
fn shared_intermediate_is_scheduled_once() {
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let a = random_matrix(3, 0.05);
    let mid = Matrix::<i64>::new(N, N).unwrap();
    let left = Matrix::<i64>::new(N, N).unwrap();
    let right = Matrix::<i64>::new(N, N).unwrap();
    let d = Descriptor::default();
    ctx.transpose(&mid, NoMask, NoAccum, &a, &d).unwrap();
    ctx.ewise_add_matrix(&left, NoMask, NoAccum, Plus::new(), &a, &mid, &d)
        .unwrap();
    ctx.ewise_mult_matrix(&right, NoMask, NoAccum, Times::new(), &a, &mid, &d)
        .unwrap();
    ctx.wait().unwrap();
    let trace = ctx.take_trace();
    let transposes = trace.iter().filter(|e| e.kind == "transpose").count();
    assert_eq!(transposes, 1, "diamond base ran {transposes}x");
    assert_eq!(trace.len(), 3);
}

/// Pending point updates reach kernels as first-class DAG nodes: kernel
/// input capture takes the epoch's non-draining *overlay* node, so the
/// trace carries one `"overlay"` event (interior dependency, so
/// `seq == None`) with the delta-merge statistics. The source handle's
/// log is untouched by the capture.
#[test]
fn overlay_nodes_are_traced_with_merge_stats() {
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let a = random_matrix(6, 0.05);
    for k in 0..10 {
        a.set(k, k, 1).unwrap();
    }
    a.remove(0, 1).unwrap(); // 11 pending entries over 10 rows
    let out = Matrix::<i64>::new(N, N).unwrap();
    let d = Descriptor::default();
    ctx.mxm(&out, NoMask, NoAccum, plus_times::<i64>(), &a, &a, &d)
        .unwrap();
    ctx.wait().unwrap();
    let trace = ctx.take_trace();
    let overlays: Vec<_> = trace.iter().filter(|e| e.kind == "overlay").collect();
    assert_eq!(overlays.len(), 1, "{trace:?}");
    let f = overlays[0];
    assert_eq!(f.pending_len, 11);
    assert_eq!(f.merged_rows, 10); // (0,0) and (0,1) share row 0
    assert!(f.seq.is_none(), "overlay is an interior dependency");
    assert_eq!((f.rows, f.cols), (N, N));
    for e in trace.iter().filter(|e| e.kind != "overlay") {
        assert_eq!((e.pending_len, e.merged_rows), (0, 0));
    }
    // capture did not drain the handle's log — the pending updates
    // are still buffered (the overlay merge observed, not consumed)
    assert_eq!(a.delta_stats().pending_len, 11);
}

/// A completion-forcing read on a handle with pending updates still
/// drains the log (eager flush), while the overlay capture above never
/// does — the two sides of the read path.
#[test]
fn forcing_read_drains_the_log() {
    let _ctx = Context::nonblocking();
    let a = random_matrix(7, 0.05);
    let before = a.nvals().unwrap();
    for k in 0..10 {
        a.set(k, k, 1).unwrap();
    }
    a.remove(k_absent(), k_absent()).unwrap();
    assert_eq!(a.delta_stats().pending_len, 11);
    let after = a.nvals().unwrap(); // forces: drains the log
    assert_eq!(a.delta_stats().pending_len, 0);
    assert!(after >= before.saturating_sub(11));
    assert_eq!(a.get(3, 3).unwrap(), Some(1));
}

/// An in-bounds coordinate `random_matrix` never populates densely —
/// used as a guaranteed-harmless removeElement target.
fn k_absent() -> usize {
    N - 1
}

/// The capi facade exposes the same hooks on the global context.
#[test]
fn capi_trace_hooks_roundtrip() {
    graphblas_capi::with_session(Mode::Nonblocking, || {
        graphblas_capi::enable_trace(true).unwrap();
        graphblas_capi::wait().unwrap();
        assert!(graphblas_capi::take_trace().unwrap().is_empty());
    })
    .unwrap();
}
