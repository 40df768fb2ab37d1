//! Betweenness centrality on an RMAT social-network-like graph: the
//! paper's Figure 3 algorithm (`BC_update`, batched Brandes) via the
//! GraphBLAS API, cross-checked against the classic queue-based Brandes
//! baseline.
//!
//! Run with: `cargo run --release --example betweenness [scale] [batch]`

use std::time::Instant;

use graphblas_algorithms::betweenness;
use graphblas_core::prelude::*;
use graphblas_gen::{rmat, RmatParams};
use graphblas_reference::{bc::brandes, AdjGraph};

fn main() -> Result<()> {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(9);
    let batch: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);

    let g = rmat(scale, 8, RmatParams::default(), 42)
        .dedup()
        .without_self_loops();
    let n = g.n;
    println!(
        "RMAT scale {scale}: {} vertices, {} edges, batch size {batch}",
        n,
        g.num_edges()
    );

    let ctx = Context::blocking();
    let a = Matrix::from_tuples(n, n, &g.int_tuples())?;

    let t0 = Instant::now();
    let bc = betweenness(&ctx, &a, batch)?;
    let t_grb = t0.elapsed();
    println!("GraphBLAS batched BC_update: {t_grb:?}");

    let t0 = Instant::now();
    let baseline = brandes(&AdjGraph::from_edges(n, &g.edges));
    let t_ref = t0.elapsed();
    println!("reference Brandes:           {t_ref:?}");

    // cross-validate: f32 path counting against the f64 reference,
    // within 1e-3 relative, absolute below 1
    let mut max_err = 0.0f64;
    for (x, y) in bc.iter().zip(&baseline) {
        max_err = max_err.max((*x as f64 - y).abs() / y.abs().max(1.0));
    }
    println!("max |GraphBLAS - reference| / max(|reference|, 1) = {max_err:.3e}");
    assert!(max_err <= 1e-3, "BC mismatch");

    // top-5 most central vertices
    let mut ranked: Vec<(usize, f32)> = bc.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 central vertices:");
    for (v, score) in ranked.iter().take(5) {
        println!("  vertex {v}: {score:.1}");
    }
    Ok(())
}
