//! Experiment E1 (DESIGN.md), paper §IV: the execution model.
//!
//! Sequences, deferral, completion forcing, program order under
//! deferral, object snapshots, lazy dead-code elimination, and the
//! "nonblocking with wait after every call ≡ blocking" equivalence.

use graphblas_core::prelude::*;

fn ring(n: usize) -> Matrix<i64> {
    let t: Vec<(usize, usize, i64)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
    Matrix::from_tuples(n, n, &t).unwrap()
}

#[test]
fn blocking_mode_completes_each_method() {
    let ctx = Context::blocking();
    let a = ring(8);
    let c = Matrix::<i64>::new(8, 8).unwrap();
    ctx.mxm(
        &c,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    assert!(c.is_complete());
    assert_eq!(ctx.pending_ops(), 0);
}

#[test]
fn nonblocking_defers_and_wait_terminates_the_sequence() {
    let ctx = Context::nonblocking();
    let a = ring(8);
    let c = Matrix::<i64>::new(8, 8).unwrap();
    let d = Matrix::<i64>::new(8, 8).unwrap();
    ctx.mxm(
        &c,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    ctx.mxm(
        &d,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &c,
        &c,
        &Descriptor::default(),
    )
    .unwrap();
    assert!(!c.is_complete());
    assert!(!d.is_complete());
    assert_eq!(ctx.pending_ops(), 2);
    ctx.wait().unwrap();
    assert!(c.is_complete() && d.is_complete());
    assert_eq!(ctx.pending_ops(), 0);
    // ring^4: each vertex reaches the vertex 4 ahead
    assert_eq!(d.get(0, 4).unwrap(), Some(1));
}

#[test]
fn exporting_methods_force_completion() {
    let ctx = Context::nonblocking();
    let a = ring(6);
    let c = Matrix::<i64>::new(6, 6).unwrap();
    ctx.mxm(
        &c,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    assert!(!c.is_complete());
    // each of these reads values into non-opaque data (§IV):
    assert_eq!(c.nvals().unwrap(), 6);
    assert!(c.is_complete());

    let d = Matrix::<i64>::new(6, 6).unwrap();
    ctx.mxm(
        &d,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(d.get(0, 2).unwrap(), Some(1));
    assert!(d.is_complete());

    let e = Matrix::<i64>::new(6, 6).unwrap();
    ctx.mxm(
        &e,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    let _ = e.extract_tuples().unwrap();
    assert!(e.is_complete());
}

#[test]
fn program_order_is_preserved_under_deferral() {
    // mutate an input *after* submitting a deferred op: the op must see
    // the value at call time (method inputs are snapshots)
    let ctx = Context::nonblocking();
    let a = Matrix::from_tuples(2, 2, &[(0, 0, 10i64)]).unwrap();
    let c = Matrix::<i64>::new(2, 2).unwrap();
    ctx.apply_matrix(
        &c,
        NoMask,
        NoAccum,
        Identity::new(),
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    a.set(0, 0, 999).unwrap(); // later program-order mutation
    a.set(1, 1, 5).unwrap();
    ctx.wait().unwrap();
    assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 10)]);
}

#[test]
fn chained_updates_to_one_object_apply_in_order() {
    let ctx = Context::nonblocking();
    let a = ring(4);
    let c = Matrix::<i64>::new(4, 4).unwrap();
    // c = A; c += A (accum); c += A again
    ctx.apply_matrix(
        &c,
        NoMask,
        NoAccum,
        Identity::new(),
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    ctx.apply_matrix(
        &c,
        NoMask,
        Accum(Plus::<i64>::new()),
        Identity::new(),
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    ctx.apply_matrix(
        &c,
        NoMask,
        Accum(Plus::<i64>::new()),
        Identity::new(),
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    ctx.wait().unwrap();
    assert_eq!(c.get(0, 1).unwrap(), Some(3));
}

#[test]
fn dead_intermediates_are_elided() {
    // an unobserved, dropped intermediate is never computed — the §IV
    // "lazy evaluation" latitude (observable through a fault that never
    // fires)
    let ctx = Context::nonblocking();
    let a = ring(4);
    {
        let dead = Matrix::<i64>::new(4, 4).unwrap();
        ctx.inject_fault(Error::Panic("should never run".into()));
        ctx.mxm(
            &dead,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
    }
    // the dead op's fault must not surface: it was never executed
    ctx.wait().unwrap();
    assert_eq!(ctx.error(), None);
}

/// What each write of an overwrite chain lets the output's old value
/// reach.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Chain {
    /// No mask, no accumulator: the old value is unobservable.
    Overwrite,
    /// An accumulator folds the old value into the result.
    Accumulate,
    /// A merge-mode mask keeps the old value where it excludes.
    MergeMask,
    /// A replace-mode mask without an accumulator clears what it
    /// excludes: the old value is unobservable again.
    ReplaceMask,
}

/// The inputs every entry point of the table below reads.
struct Inputs {
    a: Matrix<i64>,
    a2: Matrix<i64>,
    u: Vector<i64>,
    u2: Vector<i64>,
    mc: Matrix<bool>,
    mw: Vector<bool>,
    d: Descriptor,
}

fn inputs(d: Descriptor) -> Inputs {
    Inputs {
        a: ring(4),
        a2: Matrix::from_tuples(2, 2, &[(0, 1, 2), (1, 0, 3)]).unwrap(),
        u: Vector::from_dense(&[1, 2, 3, 4]).unwrap(),
        u2: Vector::from_tuples(2, &[(0, 5)]).unwrap(),
        mc: Matrix::from_tuples(4, 4, &[(0, 1, true), (2, 3, true)]).unwrap(),
        mw: Vector::from_tuples(4, &[(1, true), (2, true)]).unwrap(),
        d,
    }
}

/// Run `$call` with `$mask` bound to the chain's mask argument: `$m`
/// under a masked chain, else `NoMask`.
macro_rules! masked {
    ($chain:expr, $m:expr, |$mask:ident| $call:expr) => {
        if matches!($chain, Chain::MergeMask | Chain::ReplaceMask) {
            let $mask = $m;
            $call
        } else {
            let $mask = NoMask;
            $call
        }
    };
}

type Write = fn(&Context, &Inputs, &Matrix<i64>, &Vector<i64>, Chain) -> Result<()>;

/// Every Table II entry point, writing `c` (4x4) or `w` (4) from
/// `Inputs`; whether it reads the old output even when it overwrites
/// (`assign` forms Z from the old output: a region update); and which
/// argument its evaluation reads first, of an input, the old output
/// and the mask.
#[rustfmt::skip] // one entry point a line
fn every_entry_point() -> Vec<(&'static str, bool, &'static str, Write)> {
    fn acc(chain: Chain) -> Option<Plus<i64>> {
        (chain == Chain::Accumulate).then(Plus::new)
    }
    fn inc() -> impl UnaryOp<i64, i64> {
        unary_fn(|x: &i64| x + 1)
    }
    const R2: IndexSelection = IndexSelection::Range(0, 2);
    vec![
        ("apply matrix", false, "input", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.apply_matrix(c, m, acc(ch), inc(), &i.a, &i.d))),
        ("apply vector", false, "input", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.apply_vector(w, m, acc(ch), inc(), &i.u, &i.d))),
        ("assign matrix", true, "input", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.assign_matrix(c, m, acc(ch), &i.a2, R2, R2, &i.d))),
        ("assign scalar matrix", true, "old", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.assign_scalar_matrix(c, m, acc(ch), 7, R2, R2, &i.d))),
        // a whole-matrix fill without an accumulator replaces every
        // position, so it reads the old value only through a merge mask
        ("assign scalar matrix, all", false, "mask", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.assign_scalar_matrix(c, m, acc(ch), 7, ALL, ALL, &i.d))),
        ("assign vector", true, "input", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.assign_vector(w, m, acc(ch), &i.u2, R2, &i.d))),
        ("assign scalar vector", true, "old", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.assign_scalar_vector(w, m, acc(ch), 7, R2, &i.d))),
        // a whole-vector fill without an accumulator replaces every
        // position, so it reads the old value only through a merge mask
        ("assign scalar vector, all", false, "mask", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.assign_scalar_vector(w, m, acc(ch), 7, ALL, &i.d))),
        ("eWiseAdd matrix", false, "old", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.ewise_add_matrix(c, m, acc(ch), Plus::new(), &i.a, &i.a, &i.d))),
        ("eWiseMult matrix", false, "old", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.ewise_mult_matrix(c, m, acc(ch), Times::new(), &i.a, &i.a, &i.d))),
        ("eWiseAdd vector", false, "old", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.ewise_add_vector(w, m, acc(ch), Plus::new(), &i.u, &i.u, &i.d))),
        ("eWiseMult vector", false, "old", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.ewise_mult_vector(w, m, acc(ch), Times::new(), &i.u, &i.u, &i.d))),
        ("extract matrix", false, "input", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.extract_matrix(c, m, acc(ch), &i.a, ALL, ALL, &i.d))),
        ("extract vector", false, "input", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.extract_vector(w, m, acc(ch), &i.u, ALL, &i.d))),
        ("extract column", false, "input", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.extract_col(w, m, acc(ch), &i.a, ALL, 1, &i.d))),
        ("kronecker", false, "input", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.kronecker(c, m, acc(ch), Times::new(), &i.a2, &i.a2, &i.d))),
        ("mxm", false, "old", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.mxm(c, m, acc(ch), plus_times::<i64>(), &i.a, &i.a, &i.d))),
        ("mxv", false, "old", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.mxv(w, m, acc(ch), plus_times::<i64>(), &i.a, &i.u, &i.d))),
        ("vxm", false, "old", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.vxm(w, m, acc(ch), plus_times::<i64>(), &i.u, &i.a, &i.d))),
        ("reduce rows", false, "input", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.reduce_rows(w, m, acc(ch), PlusMonoid::new(), &i.a, &i.d))),
        ("select matrix", false, "input", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.select_matrix(c, m, acc(ch), Triu::new(0), &i.a, &i.d))),
        ("select vector", false, "input", |ctx, i, _, w, ch| masked!(ch, &i.mw, |m| ctx.select_vector(w, m, acc(ch), ValueGt(1), &i.u, &i.d))),
        ("transpose", false, "input", |ctx, i, c, _, ch| masked!(ch, &i.mc, |m| ctx.transpose(c, m, acc(ch), &i.a, &i.d))),
    ]
}

#[test]
fn overwrite_chains_drop_dead_history() {
    // Three faulted writes to one output, then a live one, for every
    // entry point. A write that cannot observe the output's old value —
    // no accumulator, and no mask or a replace-mode one — does not
    // depend on it, so an overwrite chain leaves no history: only the
    // final write runs, no fault surfaces (§IV lazy evaluation) and the
    // output holds what the live write computes on a fresh one. With an
    // accumulator or a merge-mode mask — or an `assign`, whose Z is the
    // old output with a region updated — the history is consumed, so it
    // runs, the first fault in program order surfaces at wait() (§V) and
    // the output is invalid.
    let plain = Descriptor::default();
    let replace = Descriptor::default().replace();
    for (name, reads_old, _, write) in every_entry_point() {
        for chain in [
            Chain::Overwrite,
            Chain::Accumulate,
            Chain::MergeMask,
            Chain::ReplaceMask,
        ] {
            let live = inputs(if chain == Chain::ReplaceMask {
                replace
            } else {
                plain
            });
            // replace with no mask is a plain overwrite too: the dead
            // writes of the overwrite chain take it
            let dead = inputs(if chain == Chain::Overwrite {
                replace
            } else {
                live.d
            });
            let ctx = Context::nonblocking();
            let c = Matrix::<i64>::new(4, 4).unwrap();
            let w = Vector::<i64>::new(4).unwrap();
            for k in 0..3 {
                ctx.inject_fault(Error::Panic(format!("fault {k}")));
                write(&ctx, &dead, &c, &w, chain).unwrap();
            }
            write(&ctx, &live, &c, &w, chain).unwrap();
            let overwrites = matches!(chain, Chain::Overwrite | Chain::ReplaceMask) && !reads_old;
            let want = if overwrites {
                Ok(())
            } else {
                Err(Error::Panic("fault 0".into()))
            };
            assert_eq!(ctx.wait(), want, "{name}, {chain:?}");
            if overwrites {
                let (bc, bw) = (Matrix::new(4, 4).unwrap(), Vector::new(4).unwrap());
                write(&Context::blocking(), &live, &bc, &bw, chain).unwrap();
                let got = (c.extract_tuples(), w.extract_tuples());
                let fresh = (bc.extract_tuples(), bw.extract_tuples());
                assert_eq!(got, fresh, "{name}, {chain:?}");
            } else {
                let invalid = [c.nvals(), w.nvals()]
                    .into_iter()
                    .any(|r| matches!(r, Err(Error::InvalidObject(_))));
                assert!(invalid, "{name}, {chain:?}");
            }
        }
    }
}

#[test]
fn invalid_arguments_name_the_first_one_read() {
    // When an input, the old output and the mask of one call are all
    // invalid (§V), the call's `InvalidObject` names the root cause of
    // the one its evaluation reads first. That order is each entry
    // point's own and does not change with the write stage.
    fn fail_matrix<T: Scalar>(ctx: &Context, x: &Matrix<T>, v: T, why: &str) {
        ctx.inject_fault(Error::Panic(why.into()));
        let d = Descriptor::default();
        ctx.assign_scalar_matrix(x, NoMask, NoAccum, v, ALL, ALL, &d)
            .unwrap();
    }
    fn fail_vector<T: Scalar>(ctx: &Context, x: &Vector<T>, v: T, why: &str) {
        ctx.inject_fault(Error::Panic(why.into()));
        let d = Descriptor::default();
        ctx.assign_scalar_vector(x, NoMask, NoAccum, v, ALL, &d)
            .unwrap();
    }
    fn root<T>(r: Result<T>) -> &'static str {
        let e = r.err().expect("an invalid output").to_string();
        ["input", "old", "mask"]
            .into_iter()
            .find(|k| e.ends_with(k))
            .unwrap()
    }
    for (name, _, first, write) in every_entry_point() {
        let ctx = Context::nonblocking();
        let i = inputs(Descriptor::default());
        let c = Matrix::<i64>::new(4, 4).unwrap();
        let w = Vector::<i64>::new(4).unwrap();
        for x in [&i.a, &i.a2] {
            fail_matrix(&ctx, x, 0, "input");
        }
        for x in [&i.u, &i.u2] {
            fail_vector(&ctx, x, 0, "input");
        }
        fail_matrix(&ctx, &i.mc, true, "mask");
        fail_vector(&ctx, &i.mw, true, "mask");
        fail_matrix(&ctx, &c, 0, "old");
        fail_vector(&ctx, &w, 0, "old");
        // a merge-mode mask makes every entry point read all three
        write(&ctx, &i, &c, &w, Chain::MergeMask).unwrap();
        assert!(ctx.wait().is_err());
        // the output not written still names its own root cause
        let mut named = vec![root(c.nvals()), root(w.nvals())];
        named.sort_unstable();
        named.dedup();
        let mut want = vec![first, "old"];
        want.sort_unstable();
        want.dedup();
        assert_eq!(named, want, "{name}");
    }
}

#[test]
fn accumulating_overwrites_keep_history_alive() {
    // with an accumulator the old value IS consumed — history must run
    let ctx = Context::nonblocking();
    let a = ring(4);
    let out = Matrix::<i64>::new(4, 4).unwrap();
    ctx.inject_fault(Error::Panic("needed by accum".into()));
    ctx.mxm(
        &out,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    ctx.mxm(
        &out,
        NoMask,
        Accum(Plus::<i64>::new()),
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    assert!(ctx.wait().is_err());
}

#[test]
fn live_consumers_keep_intermediates_alive() {
    // same shape as above, but the intermediate feeds a live output:
    // now it must run (and here, fail) even though its own handle is
    // dropped
    let ctx = Context::nonblocking();
    let a = ring(4);
    let out = Matrix::<i64>::new(4, 4).unwrap();
    {
        let mid = Matrix::<i64>::new(4, 4).unwrap();
        ctx.inject_fault(Error::Panic("must run".into()));
        ctx.mxm(
            &mid,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        ctx.mxm(
            &out,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &mid,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
    }
    assert!(ctx.wait().is_err());
    assert!(matches!(out.nvals(), Err(Error::InvalidObject(_))));
}

#[test]
fn wait_after_every_call_equals_blocking() {
    // §IV: "a sequence in nonblocking mode where every GraphBLAS
    // operation is followed by a call to GrB_wait() is equivalent to the
    // same sequence in blocking mode"
    let run = |ctx: &Context, wait_each: bool| {
        let a = ring(8);
        let c = Matrix::<i64>::new(8, 8).unwrap();
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        if wait_each {
            ctx.wait().unwrap();
        }
        ctx.ewise_add_matrix(
            &c,
            NoMask,
            NoAccum,
            Plus::new(),
            &c,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        if wait_each {
            ctx.wait().unwrap();
        }
        ctx.wait().unwrap();
        c.extract_tuples().unwrap()
    };
    let blocking = run(&Context::blocking(), false);
    let nb_waits = run(&Context::nonblocking(), true);
    let nb_lazy = run(&Context::nonblocking(), false);
    assert_eq!(blocking, nb_waits);
    assert_eq!(blocking, nb_lazy);
}

#[test]
fn deep_deferred_chains_complete_iteratively() {
    // a BFS-like loop on a path graph defers a chain as long as the
    // diameter; the forcing engine must not recurse (stack safety)
    let n = 3000;
    let t: Vec<(usize, usize, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
    let a = Matrix::from_tuples(n, n, &t).unwrap();
    let ctx = Context::nonblocking();
    let frontier = Vector::from_tuples(n, &[(0usize, 1i64)]).unwrap();
    for _ in 0..n - 1 {
        ctx.vxm(
            &frontier,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &frontier,
            &a,
            &Descriptor::default().replace(),
        )
        .unwrap();
    }
    // one forced observation of a ~3000-deep chain
    assert_eq!(frontier.extract_tuples().unwrap(), vec![(n - 1, 1)]);
}

#[test]
fn snapshots_make_in_place_updates_well_defined() {
    // c = c +.* c with c as all three arguments — the snapshot design
    // gives the mathematically expected result
    let ctx = Context::nonblocking();
    let c = Matrix::from_tuples(2, 2, &[(0, 1, 1i64), (1, 0, 1)]).unwrap();
    ctx.mxm(
        &c,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &c,
        &c,
        &Descriptor::default(),
    )
    .unwrap();
    ctx.wait().unwrap();
    assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 1), (1, 1, 1)]);
}

/// Who still reads the old `bcu` when line 74 accumulates into it.
#[derive(Debug, Clone, Copy)]
enum OldReader {
    Snapshot,
    Dup,
    /// An `apply` reading `bcu`, still deferred in nonblocking mode
    /// while the accumulate is forced ahead of it.
    PendingConsumer,
}

#[test]
fn in_place_accumulates_leave_other_readers_the_old_value() {
    // Fig. 3 line 74, `bcu += w .* numsp` into a full `bcu`: the write
    // stage folds T into bcu's own storage when it holds the only
    // reference, so each other reader of the old value must keep it
    let (n, k) = (64, 32);
    let d = Descriptor::default();
    let times = || binary_fn(|wv: &f32, nv: &i32| wv * *nv as f32);
    for ctx in [Context::blocking(), Context::nonblocking()] {
        for reader in [
            OldReader::Snapshot,
            OldReader::Dup,
            OldReader::PendingConsumer,
        ] {
            let bcu = Matrix::<f32>::new(n, k).unwrap();
            ctx.assign_scalar_matrix(&bcu, NoMask, NoAccum, 1.0f32, ALL, ALL, &d)
                .unwrap();
            let w = Matrix::from_tuples(n, k, &[(0, 0, 0.5f32), (5, 3, 0.25)]).unwrap();
            let numsp = Matrix::from_tuples(n, k, &[(0, 0, 2i32), (5, 3, 4), (9, 9, 1)]).unwrap();
            ctx.wait().unwrap();
            let old = bcu.extract_tuples().unwrap();
            let read: Box<dyn Fn() -> Vec<(Index, Index, f32)>> = match reader {
                OldReader::Snapshot => {
                    let snap = bcu.snapshot();
                    Box::new(move || snap.extract_tuples().unwrap())
                }
                OldReader::Dup => {
                    let dup = bcu.dup();
                    Box::new(move || dup.extract_tuples().unwrap())
                }
                OldReader::PendingConsumer => {
                    let copy = Matrix::<f32>::new(n, k).unwrap();
                    ctx.apply_matrix(&copy, NoMask, NoAccum, Identity::new(), &bcu, &d)
                        .unwrap();
                    Box::new(move || copy.extract_tuples().unwrap())
                }
            };
            ctx.ewise_mult_matrix(&bcu, NoMask, Accum(Plus::new()), times(), &w, &numsp, &d)
                .unwrap();
            // forces bcu's cone alone: a pending consumer is still deferred
            assert_eq!(bcu.get(0, 0).unwrap(), Some(2.0));
            assert_eq!(bcu.get(5, 3).unwrap(), Some(2.0));
            assert_eq!(read(), old, "{:?} {reader:?}", ctx.mode());
            ctx.wait().unwrap();
        }
    }
}
