//! The execution model (paper §IV) made visible: deferred operations in
//! nonblocking mode, completion forced by `wait()` or by exporting
//! methods, dead intermediates elided, and execution errors surfacing at
//! the sequence boundary in program order (§V).
//!
//! Run with: `cargo run --example nonblocking`

use graphblas_core::prelude::*;

fn main() -> Result<()> {
    let n = 512;
    let ring: Vec<(usize, usize, i64)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();

    println!("--- nonblocking mode defers, wait() completes ---");
    let ctx = Context::nonblocking();
    let a = Matrix::from_tuples(n, n, &ring)?;
    let c = Matrix::<i64>::new(n, n)?;
    ctx.mxm(
        &c,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )?;
    ctx.mxm(
        &c,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &c,
        &c,
        &Descriptor::default(),
    )?;
    println!("after two mxm calls: complete = {}", c.is_complete());
    println!("pending operations in the sequence: {}", ctx.pending_ops());
    ctx.wait()?;
    println!(
        "after wait(): complete = {}, C has {} entries",
        c.is_complete(),
        c.nvals()?
    );

    println!("\n--- exporting methods force completion on their own ---");
    let d = Matrix::<i64>::new(n, n)?;
    ctx.mxm(
        &d,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )?;
    println!("deferred: complete = {}", d.is_complete());
    let nv = d.nvals()?; // reads into non-opaque data: must complete
    println!("nvals() returned {nv}; complete = {}", d.is_complete());
    ctx.wait()?;

    println!("\n--- dead intermediates are never computed (lazy DCE) ---");
    {
        let dead = Matrix::<i64>::new(n, n)?;
        ctx.mxm(
            &dead,
            NoMask,
            NoAccum,
            plus_times::<i64>(),
            &a,
            &a,
            &Descriptor::default(),
        )?;
        println!("built a deferred intermediate, then dropped the handle...");
    } // `dead` dropped, never observed
    ctx.wait()?;
    println!("wait() returned without doing that multiply at all");

    println!("\n--- execution errors surface at wait(), not at the call ---");
    let bad = Matrix::<i64>::new(n, n)?;
    ctx.inject_fault(Error::OutOfMemory("simulated allocation failure".into()));
    let submit = ctx.mxm(
        &bad,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    );
    println!("the method call itself returned: {submit:?}");
    match ctx.wait() {
        Err(e) => println!("wait() reported: {e}"),
        Ok(()) => unreachable!(),
    }
    println!("GrB_error(): {:?}", ctx.error());
    match bad.nvals() {
        Err(e) => println!("the output object is now invalid: {e}"),
        Ok(_) => unreachable!(),
    }

    println!("\n--- two faults in one sequence: wait() reports the first in program order ---");
    let c1 = Matrix::<i64>::new(n, n)?;
    let c2 = Matrix::<i64>::new(n, n)?;
    let d = Descriptor::default();
    ctx.mxm(&c1, NoMask, NoAccum, plus_times::<i64>(), &a, &a, &d)?;
    ctx.inject_fault(Error::InjectedFault("first fault in program order".into()));
    ctx.ewise_add_matrix(&c2, NoMask, NoAccum, Plus::new(), &a, &c1, &d)?;
    ctx.inject_fault(Error::InjectedFault("second fault".into()));
    ctx.transpose(&c1, NoMask, NoAccum, &c2, &d)?;
    match ctx.wait() {
        Err(e) => println!("wait() reported: {e}"),
        Ok(()) => unreachable!(),
    }
    println!(
        "the later fault stays on its own output: {:?}",
        c1.extract_tuples().err()
    );

    println!("\n--- blocking and nonblocking agree on results (§IV) ---");
    let bctx = Context::blocking();
    let cb = Matrix::<i64>::new(n, n)?;
    bctx.mxm(
        &cb,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &a,
        &a,
        &Descriptor::default(),
    )?;
    bctx.mxm(
        &cb,
        NoMask,
        NoAccum,
        plus_times::<i64>(),
        &cb,
        &cb,
        &Descriptor::default(),
    )?;
    assert_eq!(cb.extract_tuples()?, c.extract_tuples()?);
    println!("identical results from both modes.");
    Ok(())
}
