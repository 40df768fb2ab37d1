//! The §V error model through the C-shaped facade: every Figure 2
//! return value reachable at runtime, exactly as a C program would see
//! them.

use std::sync::OnceLock;

use graphblas_capi as grb;
use graphblas_capi::{
    grb_binary_op_new, grb_monoid_new, grb_semiring_new, grb_type_new, Descriptor, GrbBinaryOp,
    GrbMatrix, GrbMonoid, GrbSemiring, GrbType, GrbTypeHandle, Mode, Value,
};
use graphblas_core::error::Error;

fn int32_semiring() -> GrbSemiring {
    let add = GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0)).unwrap();
    GrbSemiring::new(add, GrbBinaryOp::times(GrbType::Int32).unwrap()).unwrap()
}

#[test]
fn grb_uninitialized_object() {
    // calling an operation before GrB_init (race-free: the helper holds
    // the session lock while guaranteeing no context is live)
    grb::with_no_session(|| {
        let a = GrbMatrix::new(GrbType::Int32, 1, 1).unwrap();
        let e = grb::mxm(
            &a,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e.code_name(), "GrB_UNINITIALIZED_OBJECT");
    })
    .unwrap();
}

#[test]
fn grb_dimension_mismatch() {
    grb::with_session(Mode::Blocking, || {
        let a = GrbMatrix::new(GrbType::Int32, 2, 3).unwrap();
        let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let e = grb::mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DIMENSION_MISMATCH");
    })
    .unwrap();
}

#[test]
fn grb_domain_mismatch_everywhere_the_spec_names_it() {
    grb::with_session(Mode::Blocking, || {
        // output domain
        let a = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let c = GrbMatrix::new(GrbType::Fp64, 2, 2).unwrap();
        let e = grb::mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        // accumulator domain
        let ok_out = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let bad_acc = GrbBinaryOp::plus(GrbType::Fp32).unwrap();
        let e = grb::mxm(
            &ok_out,
            None,
            Some(&bad_acc),
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        // monoid construction
        let e = GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Fp32(0.0))
            .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        // semiring construction
        let add =
            GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0)).unwrap();
        let e = GrbSemiring::new(add, GrbBinaryOp::times(GrbType::Fp64).unwrap()).unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
    })
    .unwrap();
}

#[test]
fn grb_invalid_index_and_value() {
    grb::with_session(Mode::Blocking, || {
        let a = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let e = a.get(5, 0).unwrap_err();
        assert_eq!(e.code_name(), "GrB_INVALID_INDEX");
        // build with mismatched arrays
        let e = a
            .build(
                &[0, 1],
                &[0],
                &[Value::Int32(1)],
                &GrbBinaryOp::plus(GrbType::Int32).unwrap(),
            )
            .unwrap_err();
        assert_eq!(e.code_name(), "GrB_INVALID_VALUE");
    })
    .unwrap();
}

#[test]
fn grb_output_not_empty() {
    grb::with_session(Mode::Blocking, || {
        let a = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let dup = GrbBinaryOp::plus(GrbType::Int32).unwrap();
        a.build(&[0], &[0], &[Value::Int32(1)], &dup).unwrap();
        let e = a.build(&[1], &[1], &[Value::Int32(2)], &dup).unwrap_err();
        assert_eq!(e.code_name(), "GrB_OUTPUT_NOT_EMPTY");
    })
    .unwrap();
}

#[test]
fn nonblocking_error_at_wait_with_grb_error_text() {
    grb::with_session(Mode::Nonblocking, || {
        let a = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        a.set(0, 0, Value::Int32(7)).unwrap();
        let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        grb::inject_fault(Error::OutOfMemory("simulated device OOM".into())).unwrap();
        // the deferred call itself succeeds (§V: only API checks ran)
        grb::mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        // GrB_wait reports the execution error; GrB_error has the text
        let e = grb::wait().unwrap_err();
        assert_eq!(e.code_name(), "GrB_OUT_OF_MEMORY");
        assert!(grb::error().unwrap().contains("simulated device OOM"));
        // the output object is invalid now
        assert!(c.nvals().is_err());
    })
    .unwrap();
}

#[test]
fn figure2_success_path_returns_unit() {
    grb::with_session(Mode::Blocking, || {
        let a = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        a.set(0, 1, Value::Int32(3)).unwrap();
        let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        // GrB_SUCCESS is the Ok arm
        let r: graphblas_core::Result<()> = grb::mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        );
        assert!(r.is_ok());
    })
    .unwrap();
}

/// §V: `GrB_error()` elaborates on "the error code returned by the last
/// method" — *API* errors included, not just execution-time ones. The
/// dimension-mismatch detail must be retrievable after the call returns.
#[test]
fn grb_error_elaborates_api_errors() {
    grb::with_session(Mode::Blocking, || {
        let a = GrbMatrix::new(GrbType::Int32, 2, 3).unwrap();
        let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let e = grb::mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DIMENSION_MISMATCH");
        let detail = grb::error().expect("GrB_error text after an API error");
        assert_eq!(detail, e.to_string());
        assert!(detail.contains("GrB_DIMENSION_MISMATCH"), "{detail}");

        // domain mismatches are API errors too
        let f = GrbMatrix::new(GrbType::Fp64, 2, 2).unwrap();
        let e2 = grb::mxm(
            &f,
            None,
            None,
            &int32_semiring(),
            &c,
            &c,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e2.code_name(), "GrB_DOMAIN_MISMATCH");
        assert_eq!(grb::error().unwrap(), e2.to_string());
    })
    .unwrap();
}

/// Runtime-registered domain for the error-model tests (registered once:
/// the type registry is process-global and nominal).
fn errm_udt() -> GrbTypeHandle {
    static T: OnceLock<GrbTypeHandle> = OnceLock::new();
    *T.get_or_init(|| grb_type_new("ErrModelWrappedI64", 8).unwrap())
}

/// A wrapped-i64 PLUS_TIMES semiring over [`errm_udt`].
fn errm_semiring() -> &'static GrbSemiring {
    static S: OnceLock<GrbSemiring> = OnceLock::new();
    S.get_or_init(|| {
        let t = errm_udt().ty();
        let dec = |b: &[u8]| i64::from_ne_bytes(b.try_into().unwrap());
        let plus = grb_binary_op_new("errm_plus_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_add(dec(y)).to_ne_bytes());
        });
        let times = grb_binary_op_new("errm_times_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_mul(dec(y)).to_ne_bytes());
        });
        let add = grb_monoid_new(&plus, &0i64.to_ne_bytes()).unwrap();
        grb_semiring_new(add, times).unwrap()
    })
}

/// §V + runtime-defined algebra: a domain mismatch involving a
/// user-defined type must surface as `GrB_DOMAIN_MISMATCH`, and the
/// `GrB_error()` elaboration must name **both** domains — the registered
/// type by its registered name and the built-in by its `GrB_*` name.
#[test]
fn grb_error_names_both_domains_on_udt_mismatch() {
    grb::with_session(Mode::Blocking, || {
        let t = errm_udt();
        // UDT operand into a built-in-typed operation
        let a = GrbMatrix::new(t.ty(), 2, 2).unwrap();
        let c = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        let e = grb::mxm(
            &c,
            None,
            None,
            &int32_semiring(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        let detail = grb::error().expect("GrB_error text after the API error");
        assert!(detail.contains("ErrModelWrappedI64"), "{detail}");
        assert!(detail.contains("GrB_INT32"), "{detail}");

        // implicit casts never cross a UDT boundary: storing a UDT
        // scalar into a built-in collection names both domains too
        let e = c
            .set(0, 0, t.value(&7i64.to_ne_bytes()).unwrap())
            .unwrap_err();
        assert_eq!(e.code_name(), "GrB_DOMAIN_MISMATCH");
        let detail = e.to_string();
        assert!(detail.contains("ErrModelWrappedI64"), "{detail}");
        assert!(detail.contains("GrB_INT32"), "{detail}");
    })
    .unwrap();
}

/// The trace records erased-lane execution: a node whose kernels ran a
/// runtime-registered operator carries `udf: Some(op_name)`, while nodes
/// on the monomorphized built-in lane stay `None`.
#[test]
fn trace_marks_erased_lane_nodes() {
    use graphblas_capi::SchedPolicy;
    grb::with_session_policies(Mode::Nonblocking, SchedPolicy::Sequential, || {
        grb::enable_trace(true).unwrap();
        let t = errm_udt();
        let enc = |v: i64| t.value(&v.to_ne_bytes()).unwrap();
        let a = GrbMatrix::new(t.ty(), 2, 2).unwrap();
        a.set(0, 0, enc(2)).unwrap();
        a.set(0, 1, enc(3)).unwrap();
        a.set(1, 1, enc(4)).unwrap();
        let u = grb::GrbVector::new(t.ty(), 2).unwrap();
        u.set(0, enc(10)).unwrap();
        u.set(1, enc(20)).unwrap();
        let w = grb::GrbVector::new(t.ty(), 2).unwrap();
        grb::mxv(
            &w,
            None,
            None,
            errm_semiring(),
            &a,
            &u,
            &Descriptor::default(),
        )
        .unwrap();

        // a built-in mxv in the same session must stay unmarked
        let b = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
        b.set(0, 0, Value::Int32(1)).unwrap();
        let v = grb::GrbVector::new(GrbType::Int32, 2).unwrap();
        v.set(0, Value::Int32(5)).unwrap();
        let wv = grb::GrbVector::new(GrbType::Int32, 2).unwrap();
        grb::mxv(
            &wv,
            None,
            None,
            &int32_semiring(),
            &b,
            &v,
            &Descriptor::default(),
        )
        .unwrap();

        grb::wait().unwrap();
        let trace = grb::take_trace().unwrap();
        let mxv_events: Vec<_> = trace.iter().filter(|e| e.kind == "mxv").collect();
        assert_eq!(mxv_events.len(), 2, "{trace:?}");
        let marked: Vec<&'static str> = mxv_events.iter().filter_map(|e| e.udf).collect();
        assert_eq!(marked.len(), 1, "exactly the UDT node is marked: {trace:?}");
        assert!(
            marked[0] == "errm_plus_i64" || marked[0] == "errm_times_i64",
            "marked with a registered op name, got {:?}",
            marked[0]
        );
    })
    .unwrap();
}

/// A wrapped-i64 semiring over [`errm_udt`] whose `⊗` panics when its
/// left operand is 13: an operator bug, not a data error.
fn errm_panicky_semiring() -> &'static GrbSemiring {
    static S: OnceLock<GrbSemiring> = OnceLock::new();
    S.get_or_init(|| {
        let t = errm_udt().ty();
        let dec = |b: &[u8]| i64::from_ne_bytes(b.try_into().unwrap());
        let plus = grb_binary_op_new("errm_panicky_plus_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_add(dec(y)).to_ne_bytes());
        });
        let times = grb_binary_op_new("errm_panicky_times_i64", t, t, t, move |z, x, y| {
            assert_ne!(dec(x), 13, "user operator rejects 13");
            z.copy_from_slice(&dec(x).wrapping_mul(dec(y)).to_ne_bytes());
        });
        let add = grb_monoid_new(&plus, &0i64.to_ne_bytes()).unwrap();
        grb_semiring_new(add, times).unwrap()
    })
}

/// §V: a user operator that panics is an unrecoverable error inside the
/// method, reported as `GrB_PANIC` — from the call in blocking mode,
/// from `wait()` in nonblocking mode — and never unwound through the
/// caller. Degree 2 with a zero cost threshold runs blocking mode's
/// kernels as pooled chunks, so a chunk's panic is covered too. The
/// session stays usable: a following operation on other objects
/// succeeds.
#[test]
fn panicking_udf_reports_grb_panic_and_the_session_survives() {
    use graphblas_capi::SchedPolicy;
    use graphblas_core::par;
    let sessions = [
        (Mode::Blocking, SchedPolicy::Sequential),
        (Mode::Nonblocking, SchedPolicy::Sequential),
        (Mode::Nonblocking, SchedPolicy::Parallel),
    ];
    for (mode, policy) in sessions {
        for degree in [1, 2] {
            grb::with_session_policies(mode, policy, || {
                par::with_cost_model(1, 0, || {
                    par::with_parallelism(degree, || {
                        let t = errm_udt();
                        let enc = |v: i64| t.value(&v.to_ne_bytes()).unwrap();
                        let d = Descriptor::default();
                        let a = GrbMatrix::new(t.ty(), 4, 4).unwrap();
                        for (i, j, v) in [(0, 0, 2), (1, 2, 3), (2, 1, 13), (3, 3, 5)] {
                            a.set(i, j, enc(v)).unwrap();
                        }
                        let c = GrbMatrix::new(t.ty(), 4, 4).unwrap();
                        let e = grb::mxm(&c, None, None, errm_panicky_semiring(), &a, &a, &d)
                            .and_then(|()| grb::wait())
                            .unwrap_err();
                        assert_eq!(e.code_name(), "GrB_PANIC", "mxm {mode:?} {policy:?}: {e}");

                        let u = grb::GrbVector::new(t.ty(), 4).unwrap();
                        for i in 0..4 {
                            u.set(i, enc(1)).unwrap();
                        }
                        let w = grb::GrbVector::new(t.ty(), 4).unwrap();
                        let e = grb::mxv(&w, None, None, errm_panicky_semiring(), &a, &u, &d)
                            .and_then(|()| grb::wait())
                            .unwrap_err();
                        assert_eq!(e.code_name(), "GrB_PANIC", "mxv {mode:?} {policy:?}: {e}");

                        let b = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
                        b.set(0, 1, Value::Int32(3)).unwrap();
                        b.set(1, 0, Value::Int32(4)).unwrap();
                        let cb = GrbMatrix::new(GrbType::Int32, 2, 2).unwrap();
                        grb::mxm(&cb, None, None, &int32_semiring(), &b, &b, &d).unwrap();
                        grb::wait().unwrap();
                        assert_eq!(
                            cb.extract_tuples().unwrap(),
                            vec![(0, 0, Value::Int32(12)), (1, 1, Value::Int32(12))]
                        );
                    })
                })
            })
            .unwrap();
        }
    }
}
