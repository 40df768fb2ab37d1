//! `capi_mix`: everything through `graphblas_capi`, nothing through the typed
//! core. One operation is the Fig. 2 `C<!M,replace> += A'*B` on INT32 for three
//! pairs of graphs, twenty FP64 `mxv`, two of the same `mxv` over a registered
//! wrapped-i64 user type with a `PLUS_TIMES` semiring, and `extract_tuples` of
//! each result.
//!
//! Three small products rather than one larger one: the product count of
//! `A'*B` is set by a few hub rows, so on a single pair the cost of the
//! operation moves by 20 % from one seed to the next.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use graphblas_capi as grb;
use graphblas_capi::{
    grb_binary_op_new, grb_monoid_new, grb_semiring_new, grb_type_new, Descriptor, GrbBinaryOp,
    GrbMatrix, GrbMonoid, GrbSemiring, GrbType, GrbTypeHandle, GrbVector, Mode, Result, Value,
};
use graphblas_gen::EdgeList;

use super::{close, time_ms, timed_ops, Cfg, Phase, Workload, WARMUP_OPS};
use crate::inputs::{fingerprint, rmat_graph, Fingerprint, Rng};
use crate::trace::Tracer;

/// `mxv` calls per operation on the FP64 lane and on the user-type lane. The
/// erased lane costs about ten times the built-in one per call, so it gets a
/// tenth of the calls: no part is then more than 60 % of the operation.
const MXV_REPS_FP64: usize = 20;
const MXV_REPS_UDT: usize = 2;

const FIG2_PAIRS: u64 = 3;

pub struct Graphs {
    /// The `(A, B)` operands of each Fig. 2 product.
    pub fig2: Vec<(EdgeList, EdgeList)>,
    pub mv: EdgeList,
}

pub fn graphs(cfg: &Cfg) -> Graphs {
    let small = |salt: u64| rmat_graph(cfg.scale(9, 7), cfg.seed, salt);
    Graphs {
        fig2: (0..FIG2_PAIRS)
            .map(|k| (small(50 + 2 * k), small(51 + 2 * k)))
            .collect(),
        mv: rmat_graph(cfg.scale(11, 10), cfg.seed, 8),
    }
}

/// Small integer edge weights shared by the FP64 and the user-type lane.
pub fn mxv_weights(cfg: &Cfg, g: &EdgeList) -> Vec<i64> {
    let mut rng = Rng::new(cfg.seed, 104);
    g.edges.iter().map(|_| 1 + rng.below(9) as i64).collect()
}

pub fn mxv_input(n: usize) -> Vec<i64> {
    (0..n).map(|i| (i % 7) as i64 + 1).collect()
}

/// The registered wrapped-i64 domain and its `PLUS_TIMES` semiring. Registered
/// once per process: registrations are never freed.
pub struct WrappedI64 {
    pub ty: GrbTypeHandle,
    pub plus: GrbBinaryOp,
    pub semiring: GrbSemiring,
}

pub fn wrapped_i64() -> &'static WrappedI64 {
    static UDT: OnceLock<WrappedI64> = OnceLock::new();
    UDT.get_or_init(|| {
        let ty = grb_type_new("bench_wrapped_i64", 8).expect("register type");
        let t = ty.ty();
        let dec = |b: &[u8]| i64::from_ne_bytes(b.try_into().expect("8-byte payload"));
        let plus = grb_binary_op_new("bench_plus_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_add(dec(y)).to_ne_bytes());
        });
        let times = grb_binary_op_new("bench_times_i64", t, t, t, move |z, x, y| {
            z.copy_from_slice(&dec(x).wrapping_mul(dec(y)).to_ne_bytes());
        });
        let add = grb_monoid_new(&plus, &0i64.to_ne_bytes()).expect("monoid");
        let semiring = grb_semiring_new(add, times).expect("semiring");
        WrappedI64 { ty, plus, semiring }
    })
}

impl WrappedI64 {
    pub fn value(&self, x: i64) -> Value {
        self.ty.value(&x.to_ne_bytes()).expect("8-byte payload")
    }

    pub fn read(&self, v: &Value) -> Option<i64> {
        let bytes = self.ty.read(v).ok()?;
        Some(i64::from_ne_bytes(bytes.try_into().ok()?))
    }
}

pub fn plus_times(ty: GrbType, zero: Value) -> GrbSemiring {
    let add = GrbMonoid::new(GrbBinaryOp::plus(ty).expect("plus"), zero).expect("monoid");
    GrbSemiring::new(add, GrbBinaryOp::times(ty).expect("times")).expect("semiring")
}

pub fn build_matrix(
    ty: GrbType,
    g: &EdgeList,
    vals: &[Value],
    dup: &GrbBinaryOp,
) -> Result<GrbMatrix> {
    let m = GrbMatrix::new(ty, g.n, g.n)?;
    let (rows, cols): (Vec<usize>, Vec<usize>) = g.edges.iter().copied().unzip();
    m.build(&rows, &cols, vals, dup)?;
    Ok(m)
}

pub fn build_dense_vector(ty: GrbType, vals: &[Value], dup: &GrbBinaryOp) -> Result<GrbVector> {
    let v = GrbVector::new(ty, vals.len())?;
    let idx: Vec<usize> = (0..vals.len()).collect();
    v.build(&idx, vals, dup)?;
    Ok(v)
}

/// The facade objects of one session.
struct Objects {
    fig2: Vec<(GrbMatrix, GrbMatrix)>,
    plus_i32: GrbBinaryOp,
    sr_i32: GrbSemiring,
    fig2_desc: Descriptor,
    mv_f64: GrbMatrix,
    u_f64: GrbVector,
    sr_f64: GrbSemiring,
    mv_udt: GrbMatrix,
    u_udt: GrbVector,
}

struct Outputs {
    /// Per Fig. 2 pair.
    c: Vec<Vec<(usize, usize, Value)>>,
    w_f64: Vec<(usize, Value)>,
    w_udt: Vec<(usize, Value)>,
}

struct Expected {
    c: Vec<BTreeMap<(usize, usize), i32>>,
    /// Per row; `None` where the matrix row is empty, so `mxv` stores nothing.
    w_f64: Vec<Option<f64>>,
    w_udt: Vec<Option<i64>>,
}

pub struct CapiMix {
    g: Graphs,
    weights: Vec<i64>,
    o: Objects,
    want: Option<Expected>,
}

impl CapiMix {
    pub fn setup(cfg: &Cfg) -> Self {
        grb::Config::new(Mode::Blocking)
            .init()
            .expect("GrB_init: no other session in this process");
        let g = graphs(cfg);
        let weights = mxv_weights(cfg, &g.mv);
        let o = Objects::build(&g, &weights).expect("build facade objects");
        let mix = CapiMix {
            g,
            weights,
            o,
            want: None,
        };
        for _ in 0..WARMUP_OPS {
            mix.o.op(&Tracer::off()).expect("warm-up");
        }
        mix
    }
}

impl Drop for CapiMix {
    fn drop(&mut self) {
        let _ = grb::finalize();
    }
}

impl Objects {
    fn build(g: &Graphs, weights: &[i64]) -> Result<Objects> {
        let plus_i32 = GrbBinaryOp::plus(GrbType::Int32)?;
        let ones = |g: &EdgeList| vec![Value::Int32(1); g.edges.len()];
        let plus_f64 = GrbBinaryOp::plus(GrbType::Fp64)?;
        let udt = wrapped_i64();
        let n = g.mv.n;
        Ok(Objects {
            fig2: g
                .fig2
                .iter()
                .map(|(a, b)| {
                    Ok((
                        build_matrix(GrbType::Int32, a, &ones(a), &plus_i32)?,
                        build_matrix(GrbType::Int32, b, &ones(b), &plus_i32)?,
                    ))
                })
                .collect::<Result<_>>()?,
            sr_i32: plus_times(GrbType::Int32, Value::Int32(0)),
            fig2_desc: Descriptor::default()
                .transpose_first()
                .complement_mask()
                .replace(),
            mv_f64: build_matrix(
                GrbType::Fp64,
                &g.mv,
                &weights
                    .iter()
                    .map(|&w| Value::Fp64(w as f64))
                    .collect::<Vec<_>>(),
                &plus_f64,
            )?,
            u_f64: build_dense_vector(
                GrbType::Fp64,
                &mxv_input(n)
                    .iter()
                    .map(|&x| Value::Fp64(x as f64))
                    .collect::<Vec<_>>(),
                &plus_f64,
            )?,
            sr_f64: plus_times(GrbType::Fp64, Value::Fp64(0.0)),
            mv_udt: build_matrix(
                udt.ty.ty(),
                &g.mv,
                &weights.iter().map(|&w| udt.value(w)).collect::<Vec<_>>(),
                &udt.plus,
            )?,
            u_udt: build_dense_vector(
                udt.ty.ty(),
                &mxv_input(n)
                    .iter()
                    .map(|&x| udt.value(x))
                    .collect::<Vec<_>>(),
                &udt.plus,
            )?,
            plus_i32,
        })
    }

    /// One operation. In each Fig. 2 product `A` is both the left operand and
    /// the (complemented) mask, and `C` starts as a copy of `B`.
    fn op(&self, tr: &Tracer) -> Result<Outputs> {
        let mut cs = Vec::with_capacity(self.fig2.len());
        for (a, b) in &self.fig2 {
            let c = tr.scope("capi", "dup", || b.dup());
            tr.scope("capi", "mxm_fig2", || {
                grb::mxm(
                    &c,
                    Some(a),
                    Some(&self.plus_i32),
                    &self.sr_i32,
                    a,
                    b,
                    &self.fig2_desc,
                )
            })?;
            cs.push(c);
        }
        let n = self.mv_f64.nrows();
        let w_f64 = GrbVector::new(GrbType::Fp64, n)?;
        let w_udt = GrbVector::new(wrapped_i64().ty.ty(), n)?;
        let desc = Descriptor::default();
        for _ in 0..MXV_REPS_FP64 {
            tr.scope("capi", "mxv_fp64", || {
                grb::mxv(
                    &w_f64,
                    None,
                    None,
                    &self.sr_f64,
                    &self.mv_f64,
                    &self.u_f64,
                    &desc,
                )
            })?;
        }
        for _ in 0..MXV_REPS_UDT {
            tr.scope("capi", "mxv_udt", || {
                grb::mxv(
                    &w_udt,
                    None,
                    None,
                    &wrapped_i64().semiring,
                    &self.mv_udt,
                    &self.u_udt,
                    &desc,
                )
            })?;
        }
        tr.scope("capi", "extract_tuples", || {
            Ok(Outputs {
                c: cs
                    .iter()
                    .map(GrbMatrix::extract_tuples)
                    .collect::<Result<_>>()?,
                w_f64: w_f64.extract_tuples()?,
                w_udt: w_udt.extract_tuples()?,
            })
        })
    }
}

impl Expected {
    /// The same three results in plain Rust over the edge lists: no library
    /// code is shared with what is being checked.
    fn compute(g: &Graphs, weights: &[i64]) -> Expected {
        let rows_of = |g: &EdgeList| {
            let mut rows = vec![Vec::new(); g.n];
            for &(u, v) in &g.edges {
                rows[u].push(v);
            }
            rows
        };
        let fig2 = |a: &EdgeList, b: &EdgeList| {
            // T = A' * B over (+, *) with all stored values 1
            let mut z: BTreeMap<(usize, usize), i32> = BTreeMap::new();
            for (ak, bk) in rows_of(a).iter().zip(&rows_of(b)) {
                for &i in ak {
                    for &j in bk {
                        *z.entry((i, j)).or_insert(0) += 1;
                    }
                }
            }
            // C = B; Z = C + T; C<!A, replace> = Z
            for &(u, v) in &b.edges {
                *z.entry((u, v)).or_insert(0) += 1;
            }
            for e in &a.edges {
                z.remove(e);
            }
            z
        };

        let u = mxv_input(g.mv.n);
        let mut w_udt: Vec<Option<i64>> = vec![None; g.mv.n];
        let mut w_f64: Vec<Option<f64>> = vec![None; g.mv.n];
        for (&(i, j), &w) in g.mv.edges.iter().zip(weights) {
            w_udt[i] = Some(w_udt[i].unwrap_or(0).wrapping_add(w.wrapping_mul(u[j])));
            w_f64[i] = Some(w_f64[i].unwrap_or(0.0) + w as f64 * u[j] as f64);
        }
        Expected {
            c: g.fig2.iter().map(|(a, b)| fig2(a, b)).collect(),
            w_f64,
            w_udt,
        }
    }

    fn matches(&self, got: &Outputs) -> bool {
        let c_ok = got.c.len() == self.c.len()
            && got.c.iter().zip(&self.c).all(|(got, want)| {
                got.len() == want.len()
                    && got.iter().all(|(i, j, v)| {
                        want.get(&(*i, *j)).is_some_and(|w| *v == Value::Int32(*w))
                    })
            });
        let stored = self.w_f64.iter().flatten().count();
        let f64_ok = got.w_f64.len() == stored
            && got.w_f64.iter().all(|(i, v)| {
                matches!((v, self.w_f64[*i]), (Value::Fp64(x), Some(w)) if close(*x, w, 1e-9, 0.0))
            });
        let udt_ok = got.w_udt.len() == stored
            && got
                .w_udt
                .iter()
                .all(|(i, v)| self.w_udt[*i].is_some() && wrapped_i64().read(v) == self.w_udt[*i]);
        c_ok && f64_ok && udt_ok
    }
}

impl Workload for CapiMix {
    fn graphs(&self) -> Vec<Fingerprint> {
        let mut out = Vec::new();
        for (k, (a, b)) in self.g.fig2.iter().enumerate() {
            out.push(fingerprint(format!("capi_mix.fig2_a{k}"), a));
            out.push(fingerprint(format!("capi_mix.fig2_b{k}"), b));
        }
        out.push(fingerprint("capi_mix.mxv", &self.g.mv));
        out
    }

    fn prepare_checks(&mut self) {
        self.want = Some(Expected::compute(&self.g, &self.weights));
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let want = self.want.as_ref().expect("prepare_checks ran");
        timed_ops(seconds, traced, |_, tr| {
            let (ms, got) = time_ms(|| tr.scope("harness", "op", || self.o.op(tr)));
            (ms, got.is_ok_and(|out| want.matches(&out)))
        })
    }
}
