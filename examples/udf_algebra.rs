//! Two runtime-registered algebras through the C-shaped registration
//! surface (`grb_type_new` / `grb_binary_op_new` / `grb_monoid_new` /
//! `grb_semiring_new`):
//!
//! 1. **Complex PLUS_TIMES** — a 16-byte `(re, im)` struct with complex
//!    addition and multiplication; `mxv` runs a complex matrix-vector
//!    product that no built-in domain can express.
//! 2. **Tropical min-plus with a declared terminal** — min over `f64`
//!    with `+` as multiply; the monoid declares `0.0` absorbing (valid
//!    for non-negative weights), which lets reductions short-circuit
//!    the moment a zero-distance entry is seen.
//!
//! Run with: `cargo run --release --example udf_algebra`

use graphblas_capi::{
    grb_binary_op_new, grb_monoid_new, grb_monoid_terminal_new, grb_semiring_new, grb_type_new,
    operations as ops, with_session, Descriptor, GrbMatrix, GrbVector, Mode, Value,
};
use graphblas_core::error::Result;

fn cenc(re: f64, im: f64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&re.to_ne_bytes());
    b[8..].copy_from_slice(&im.to_ne_bytes());
    b
}

fn cdec(b: &[u8]) -> (f64, f64) {
    (
        f64::from_ne_bytes(b[..8].try_into().unwrap()),
        f64::from_ne_bytes(b[8..].try_into().unwrap()),
    )
}

fn udf_bytes(v: &Value) -> &[u8] {
    match v {
        Value::Udf(u) => u.bytes(),
        other => panic!("expected a registered domain, got {other:?}"),
    }
}

fn complex_demo() -> Result<()> {
    let cplx = grb_type_new("Complex64", 16)?;
    let t = cplx.ty();
    let add = grb_binary_op_new("cplx_plus", t, t, t, |z, x, y| {
        let (xr, xi) = cdec(x);
        let (yr, yi) = cdec(y);
        z.copy_from_slice(&cenc(xr + yr, xi + yi));
    });
    let mul = grb_binary_op_new("cplx_times", t, t, t, |z, x, y| {
        let (xr, xi) = cdec(x);
        let (yr, yi) = cdec(y);
        z.copy_from_slice(&cenc(xr * yr - xi * yi, xr * yi + xi * yr));
    });
    let plus_monoid = grb_monoid_new(&add, &cenc(0.0, 0.0))?;
    let sr = grb_semiring_new(plus_monoid, mul)?;

    with_session(Mode::Nonblocking, || -> Result<()> {
        let d = Descriptor::default();
        // A = [[1+i, 2], [0, -i]], u = [3, 1-i]
        let a = GrbMatrix::new(t, 2, 2)?;
        a.set(0, 0, cplx.value(&cenc(1.0, 1.0))?)?;
        a.set(0, 1, cplx.value(&cenc(2.0, 0.0))?)?;
        a.set(1, 1, cplx.value(&cenc(0.0, -1.0))?)?;
        let u = GrbVector::new(t, 2)?;
        u.set(0, cplx.value(&cenc(3.0, 0.0))?)?;
        u.set(1, cplx.value(&cenc(1.0, -1.0))?)?;

        let w = GrbVector::new(t, 2)?;
        ops::mxv(&w, None, None, &sr, &a, &u, &d)?;

        // w0 = (1+i)·3 + 2·(1-i) = 5+i ; w1 = (-i)·(1-i) = -1-i
        let tuples = w.extract_tuples()?;
        let got: Vec<(usize, (f64, f64))> = tuples
            .iter()
            .map(|(i, v)| (*i, cdec(udf_bytes(v))))
            .collect();
        assert_eq!(got, vec![(0, (5.0, 1.0)), (1, (-1.0, -1.0))]);
        println!("complex mxv: A·u = {got:?}  (5+i, -1-i) ✓");
        Ok(())
    })?
}

fn tropical_demo() -> Result<()> {
    let trop = grb_type_new("TropicalF64", 8)?;
    let t = trop.ty();
    let dec = |b: &[u8]| f64::from_ne_bytes(b.try_into().unwrap());
    let min = grb_binary_op_new("trop_min", t, t, t, move |z, x, y| {
        z.copy_from_slice(if dec(x) <= dec(y) { x } else { y });
    });
    let plus = grb_binary_op_new("trop_plus", t, t, t, move |z, x, y| {
        z.copy_from_slice(&(dec(x) + dec(y)).to_ne_bytes());
    });
    // min over non-negative weights: identity +inf, absorbing 0 — the
    // GxB_Monoid_terminal_new shape; reduce kernels stop on first zero
    let min_monoid =
        grb_monoid_terminal_new(&min, &f64::INFINITY.to_ne_bytes(), &0.0f64.to_ne_bytes())?;
    let sr = grb_semiring_new(min_monoid.clone(), plus)?;

    with_session(Mode::Nonblocking, || -> Result<()> {
        let d = Descriptor::default();
        let n = 4usize;
        // a little weighted path/diamond: 0→1 (1.5), 0→2 (4.0),
        // 1→2 (2.0), 1→3 (6.0), 2→3 (1.0), plus a free 3→3 (0.0)
        let edges = [
            (0, 1, 1.5),
            (0, 2, 4.0),
            (1, 2, 2.0),
            (1, 3, 6.0),
            (2, 3, 1.0),
            (3, 3, 0.0),
        ];
        let a = GrbMatrix::new(t, n, n)?;
        for (i, j, w) in edges {
            a.set(i, j, trop.value(&f64::to_ne_bytes(w))?)?;
        }
        // two-hop distances from vertex 0: d2 = d1 min.+ A
        let d1 = GrbVector::new(t, n)?;
        for (j, w) in [(1usize, 1.5f64), (2, 4.0)] {
            d1.set(j, trop.value(&w.to_ne_bytes())?)?;
        }
        let d2 = GrbVector::new(t, n)?;
        ops::vxm(&d2, None, None, &sr, &d1, &a, &d)?;
        let got: Vec<(usize, f64)> = d2
            .extract_tuples()?
            .iter()
            .map(|(i, v)| (*i, dec(udf_bytes(v))))
            .collect();
        // 0→1→2 = 3.5 beats 0→2 stored hop; 0→2→3 = 5.0 beats 0→1→3
        assert_eq!(got, vec![(2, 3.5), (3, 5.0)]);
        println!("tropical vxm: two-hop frontier = {got:?} ✓");

        // the declared terminal short-circuits a full reduction the
        // moment the absorbing 0.0 (the free self-loop) is folded in
        let total = ops::reduce_matrix_scalar(&min_monoid, &a)?;
        assert_eq!(dec(udf_bytes(&total)), 0.0);
        println!("tropical reduce: min over all edges = 0.0 (terminal hit) ✓");
        Ok(())
    })?
}

fn main() -> Result<()> {
    complex_demo()?;
    tropical_demo()?;
    println!("runtime-defined algebra demos passed");
    Ok(())
}
