//! SSSP **with predecessors** over a runtime-registered user-struct
//! semiring — the paper's `GrB_Type_new` story end to end. The domain is
//! a 16-byte struct `(dist: f64, parent: u64)`; the additive monoid is
//! min-by-dist (ties to the smaller parent id, so the fold is
//! associative and commutative and parallel runs are deterministic);
//! the multiply relaxes an edge stored as `(weight, source)`:
//!
//! ```text
//! (d_u, p_u) ⊗ (w_uv, u) = (d_u + w_uv, u)
//! ```
//!
//! so one `vxm` per Bellman-Ford round carries both the tentative
//! distance *and* the predecessor, in one pass, with no second
//! "argmin" operation. Runs in **nonblocking parallel** mode and is
//! validated against reference Dijkstra distances plus the relaxation
//! invariant `dist[v] = dist[parent[v]] + w(parent[v], v)`.
//!
//! Run with: `cargo run --release --example sssp_parents [n] [avg_degree]`

use std::collections::HashMap;

use graphblas_capi::{
    grb_binary_op_new, grb_monoid_new, grb_semiring_new, grb_type_new, operations as ops,
    with_session_policies, Descriptor, GrbMatrix, GrbVector, Mode, SchedPolicy, Value,
};
use graphblas_core::error::Result;
use graphblas_gen::erdos_renyi_gnm;
use graphblas_reference::{paths::dijkstra, WeightedGraph};

/// No-predecessor sentinel (source vertex and unreached vertices).
const NIL: u64 = u64::MAX;

fn enc(dist: f64, parent: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&dist.to_ne_bytes());
    b[8..].copy_from_slice(&parent.to_ne_bytes());
    b
}

fn dec(b: &[u8]) -> (f64, u64) {
    (
        f64::from_ne_bytes(b[..8].try_into().unwrap()),
        u64::from_ne_bytes(b[8..].try_into().unwrap()),
    )
}

fn dec_value(v: &Value) -> (f64, u64) {
    match v {
        Value::Udf(u) => dec(u.bytes()),
        other => panic!("expected the registered pair domain, got {other:?}"),
    }
}

fn main() -> Result<()> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let deg: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let src = 0usize;

    let g = erdos_renyi_gnm(n, n * deg / 2, 11);
    let edges = g.weighted_tuples(1.0, 10.0, 42);
    println!("G(n={n}, m={}) with weights in [1, 10)", edges.len());

    // GrB_Type_new: a 16-byte (dist, parent) struct, opaque to the
    // library — the implementation only ever moves the bytes.
    let pair = grb_type_new("SsspPair", 16)?;
    let t = pair.ty();

    // min-by-dist, ties to the smaller parent id: a total order, so the
    // op is a genuine commutative/associative monoid under (inf, NIL).
    let min_pair = grb_binary_op_new("sssp_min_by_dist", t, t, t, |z, x, y| {
        let (dx, px) = dec(x);
        let (dy, py) = dec(y);
        let pick_x = match dx.total_cmp(&dy) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => px <= py,
        };
        z.copy_from_slice(if pick_x { x } else { y });
    });
    // edge relaxation: the second operand is the matrix entry (w, u)
    let relax = grb_binary_op_new("sssp_relax", t, t, t, |z, x, y| {
        let (d, _) = dec(x);
        let (w, u) = dec(y);
        z.copy_from_slice(&enc(d + w, u));
    });
    let min_monoid = grb_monoid_new(&min_pair, &enc(f64::INFINITY, NIL))?;
    let sr = grb_semiring_new(min_monoid, relax)?;

    let (dist, parent) = with_session_policies(
        Mode::Nonblocking,
        SchedPolicy::Parallel,
        || -> Result<(Vec<f64>, Vec<u64>)> {
            let d = Descriptor::default();
            // A(u, v) = (w_uv, u): each stored edge knows its source
            let a = GrbMatrix::new(t, n, n)?;
            for &(u, v, w) in &edges {
                a.set(u, v, pair.value(&enc(w, u as u64))?)?;
            }

            // dense tentative-distance vector, (inf, NIL) off the source
            let mut dv = GrbVector::new(t, n)?;
            for i in 0..n {
                let init = if i == src {
                    enc(0.0, NIL)
                } else {
                    enc(f64::INFINITY, NIL)
                };
                dv.set(i, pair.value(&init)?)?;
            }

            let mut prev = snapshot(&dv)?;
            for round in 1..n {
                // one relaxation round: w = d min.relax A, d' = min(d, w)
                let w = GrbVector::new(t, n)?;
                ops::vxm(&w, None, None, &sr, &dv, &a, &d)?;
                let next = GrbVector::new(t, n)?;
                ops::ewise_add_vector(&next, None, None, &min_pair, &dv, &w, &d)?;
                dv = next;
                let cur = snapshot(&dv)?;
                if cur == prev {
                    println!("converged after {round} rounds");
                    break;
                }
                prev = cur;
            }

            let mut dist = vec![f64::INFINITY; n];
            let mut parent = vec![NIL; n];
            for (i, v) in dv.extract_tuples()? {
                let (d, p) = dec_value(&v);
                dist[i] = d;
                parent[i] = p;
            }
            Ok((dist, parent))
        },
    )??;

    // validate distances against reference Dijkstra
    let wg = WeightedGraph::from_edges(n, &edges);
    let baseline = dijkstra(&wg, src);
    let mut reached = 0usize;
    for (v, b) in baseline.iter().enumerate() {
        match b {
            Some(bd) => {
                assert!(
                    (dist[v] - bd).abs() < 1e-9,
                    "distance mismatch at {v}: {} vs {bd}",
                    dist[v]
                );
                reached += 1;
            }
            None => assert!(dist[v].is_infinite(), "false reachability at {v}"),
        }
    }

    // validate parents by the relaxation invariant: every reached
    // non-source vertex's predecessor edge closes its shortest distance
    let wmap: HashMap<(usize, usize), f64> = edges.iter().map(|&(u, v, w)| ((u, v), w)).collect();
    for v in 0..n {
        if v == src || dist[v].is_infinite() {
            continue;
        }
        let p = parent[v] as usize;
        let w = wmap
            .get(&(p, v))
            .unwrap_or_else(|| panic!("parent[{v}] = {p} is not an in-neighbor"));
        assert!(
            (dist[p] + w - dist[v]).abs() < 1e-9,
            "parent edge ({p},{v}) does not close dist[{v}]"
        );
    }
    assert_eq!(parent[src], NIL, "source has no predecessor");

    println!("{reached}/{n} vertices reached; all distances match Dijkstra");
    println!("all predecessor edges satisfy dist[v] = dist[parent] + w");
    let sample: Vec<(usize, f64, u64)> = (0..n)
        .filter(|&v| dist[v].is_finite() && v != src)
        .take(5)
        .map(|v| (v, dist[v], parent[v]))
        .collect();
    println!("sample (vertex, dist, parent): {sample:?}");
    Ok(())
}

/// Decode a vector's tuples into comparable `(index, dist-bits, parent)`
/// triples for the fixpoint test.
fn snapshot(v: &GrbVector) -> Result<Vec<(usize, u64, u64)>> {
    Ok(v.extract_tuples()?
        .into_iter()
        .map(|(i, val)| {
            let (d, p) = dec_value(&val);
            (i, d.to_bits(), p)
        })
        .collect())
}
