//! PR acceptance property for the pending-update buffer
//! (`storage::delta`): a random interleaving of point mutations
//! (`set` / `remove` / 1×1 scalar `assign`) with completion-forcing
//! operations (`mxm`, `mxv`, row/scalar `reduce`, `nvals`) yields
//! **bitwise** identical observables whether the mutations are left
//! deferred in the delta log until a read forces the merge, or eagerly
//! flushed after every step — across execution modes, storage formats,
//! and intra-kernel parallelism degrees, with NaN / ±∞ / -0.0 payloads
//! included. This is the "deferred ≡ eager" acceptance criterion.

mod common;

use common::{
    at_degree, contexts, fval, matrix_bits, sparse, to_matrix, to_vector, vector_bits, Tuples,
};
use graphblas_core::prelude::*;
use proptest::prelude::*;

const N: usize = 16;
const DEGREES: [usize; 3] = [1, 2, 8];

/// One step of a random program over a matrix `m` and a vector `u`.
#[derive(Debug, Clone)]
enum Step {
    /// `m.set(i, j, v)` — O(1) append to the pending buffer.
    Set(usize, usize, u8),
    /// `m.remove(i, j)` — tombstone append (no-op if absent).
    Remove(usize, usize),
    /// 1×1 unmasked no-accum scalar assign — routed through the same
    /// pending buffer by the fast path.
    AssignPoint(usize, usize, u8),
    /// `u.set(i, v)` / `u.remove(i)` — the vector-side buffer.
    VSet(usize, u8),
    VRemove(usize),
    /// `out = m ⊕.⊗ m` — kernel input resolution forces the flush.
    Mxm,
    /// `w = m ⊕.⊗ u` — forces both buffers.
    Mxv,
    /// Row reduction plus a scalar reduction (an immediate read).
    Reduce,
    /// `m.nvals()` — a completion-forcing query mid-program.
    Nvals,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // The vendored proptest has no weighted prop_oneof; repeating the
    // point-mutation arms biases programs toward long deferral chains.
    prop_oneof![
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::Set(i, j, c)),
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::Set(i, j, c)),
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::Set(i, j, c)),
        (0..N, 0..N).prop_map(|(i, j)| Step::Remove(i, j)),
        (0..N, 0..N, any::<u8>()).prop_map(|(i, j, c)| Step::AssignPoint(i, j, c)),
        (0..N, any::<u8>()).prop_map(|(i, c)| Step::VSet(i, c)),
        (0..N, any::<u8>()).prop_map(|(i, c)| Step::VSet(i, c)),
        (0..N).prop_map(Step::VRemove),
        Just(Step::Mxm),
        Just(Step::Mxv),
        Just(Step::Reduce),
        Just(Step::Nvals),
    ]
}

/// Everything a program can observe, down to the bit pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Obs {
    m: Vec<(usize, usize, u64)>,
    u: Vec<(usize, u64)>,
    outs: Vec<Vec<(usize, usize, u64)>>,
    vouts: Vec<Vec<(usize, u64)>>,
    scalars: Vec<u64>,
    nvals: Vec<usize>,
}

/// Interpret `steps` under `ctx`. With `eager` set, every point
/// mutation is followed by a `wait()` on the mutated object, so the
/// delta log never holds more than one entry; otherwise the buffer
/// accumulates until an operation or query forces the k-way merge.
fn interpret(
    ctx: &Context,
    m0: &Tuples,
    u0: &Tuples,
    steps: &[Step],
    grid: Option<(usize, usize)>,
    eager: bool,
) -> Obs {
    let m = to_matrix(N, m0, grid);
    let u = to_vector(N, u0);
    let d = Descriptor::default();
    let mut obs = Obs {
        m: Vec::new(),
        u: Vec::new(),
        outs: Vec::new(),
        vouts: Vec::new(),
        scalars: Vec::new(),
        nvals: Vec::new(),
    };
    for step in steps {
        match *step {
            Step::Set(i, j, c) => m.set(i, j, fval(c)).unwrap(),
            Step::Remove(i, j) => m.remove(i, j).unwrap(),
            Step::AssignPoint(i, j, c) => ctx
                .assign_scalar_matrix(
                    &m,
                    NoMask,
                    NoAccum,
                    fval(c),
                    IndexSelection::List(&[i]),
                    IndexSelection::List(&[j]),
                    &d,
                )
                .unwrap(),
            Step::VSet(i, c) => u.set(i, fval(c)).unwrap(),
            Step::VRemove(i) => u.remove(i).unwrap(),
            Step::Mxm => {
                let out = Matrix::<f64>::new(N, N).unwrap();
                ctx.mxm(&out, NoMask, NoAccum, plus_times::<f64>(), &m, &m, &d)
                    .unwrap();
                obs.outs.push(matrix_bits(&out));
            }
            Step::Mxv => {
                let w = Vector::<f64>::new(N).unwrap();
                ctx.mxv(&w, NoMask, NoAccum, plus_times::<f64>(), &m, &u, &d)
                    .unwrap();
                obs.vouts.push(vector_bits(&w));
            }
            Step::Reduce => {
                let w = Vector::<f64>::new(N).unwrap();
                ctx.reduce_rows(&w, NoMask, NoAccum, PlusMonoid::new(), &m, &d)
                    .unwrap();
                obs.vouts.push(vector_bits(&w));
                let s = ctx.reduce_matrix_to_scalar(PlusMonoid::new(), &m).unwrap();
                obs.scalars.push(s.to_bits());
            }
            Step::Nvals => obs.nvals.push(m.nvals().unwrap()),
        }
        if eager {
            match *step {
                Step::Set(..) | Step::Remove(..) | Step::AssignPoint(..) => m.wait().unwrap(),
                Step::VSet(..) | Step::VRemove(..) => u.wait().unwrap(),
                _ => {}
            }
        }
    }
    ctx.wait().unwrap();
    obs.m = matrix_bits(&m);
    obs.u = vector_bits(&u);
    obs
}

const GRIDS: [Option<(usize, usize)>; 2] = [None, Some((4, 4))];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: every (mode, grid, degree) × {deferred,
    /// eager} run of the same program observes the same bits as the
    /// serial eager blocking reference.
    #[test]
    fn deferred_equals_eager_bitwise(
        m0 in sparse(N, 48),
        u0 in sparse(N, 16),
        steps in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        let reference =
            at_degree(1, || interpret(&Context::blocking(), &m0, &u0, &steps, None, true));
        for ctx in contexts() {
            for grid in GRIDS {
                for k in DEGREES {
                    for eager in [false, true] {
                        let got =
                            at_degree(k, || interpret(&ctx, &m0, &u0, &steps, grid, eager));
                        prop_assert_eq!(
                            &reference, &got,
                            "mode {:?} grid {:?} degree {} eager {}",
                            ctx.mode(), grid, k, eager
                        );
                    }
                }
            }
        }
    }

    /// Dedup inside the buffer is last-write-wins: hammering one cell
    /// with sets and removes, the only surviving value is the final one,
    /// regardless of how many runs the log sealed.
    #[test]
    fn last_write_wins_over_long_update_chains(
        raw in proptest::collection::vec((any::<bool>(), any::<u8>()), 1..64),
    ) {
        // (false, _) encodes a remove; (true, c) a set of payload c.
        let codes: Vec<Option<u8>> =
            raw.into_iter().map(|(put, c)| put.then_some(c)).collect();
        last_write_wins(&Matrix::new(N, N).unwrap(), &codes);
        last_write_wins(&Vector::new(N).unwrap(), &codes);
    }
}

/// One fixed cell of a collection — all `last_write_wins` needs, so
/// `Matrix` and `Vector` run the same body.
trait Cell {
    fn put(&self, v: f64);
    fn del(&self);
    fn read(&self) -> Option<f64>;
    fn count(&self) -> usize;
}

impl Cell for Matrix<f64> {
    fn put(&self, v: f64) {
        self.set(3, 5, v).unwrap()
    }
    fn del(&self) {
        self.remove(3, 5).unwrap()
    }
    fn read(&self) -> Option<f64> {
        self.get(3, 5).unwrap()
    }
    fn count(&self) -> usize {
        self.nvals().unwrap()
    }
}

impl Cell for Vector<f64> {
    fn put(&self, v: f64) {
        self.set(5, v).unwrap()
    }
    fn del(&self) {
        self.remove(5).unwrap()
    }
    fn read(&self) -> Option<f64> {
        self.get(5).unwrap()
    }
    fn count(&self) -> usize {
        self.nvals().unwrap()
    }
}

fn last_write_wins(cell: &impl Cell, codes: &[Option<u8>]) {
    for c in codes {
        match c {
            Some(c) => cell.put(fval(*c)),
            None => cell.del(),
        }
    }
    match codes.last().unwrap() {
        Some(c) => {
            assert_eq!(cell.count(), 1);
            assert_eq!(cell.read().unwrap().to_bits(), fval(*c).to_bits());
        }
        None => assert_eq!(cell.count(), 0),
    }
}
