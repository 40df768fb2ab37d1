//! Seeded inputs. `--seed` drives every graph, source list and request
//! stream; the program under test only ever sees the generated inputs.

use graphblas_gen::{rmat, EdgeList, RmatParams};

use crate::json::Json;

/// SplitMix64: the harness's own stream for sources, updates and request
/// mixes (the graphs come from `graphblas_gen`'s generator).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream per (run seed, purpose): streams with different `salt`s are
    /// independent, so adding a consumer never shifts an existing one.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The one input family: RMAT, edge factor 8, Graph500 quadrant weights,
/// deduplicated, no self-loops. `salt` separates the graphs of one run.
pub fn rmat_graph(scale: u32, seed: u64, salt: u64) -> EdgeList {
    rmat(scale, 8, RmatParams::default(), Rng::new(seed, salt).next())
        .dedup()
        .without_self_loops()
}

/// What a graph was, so a silent change to the generator cannot shift the
/// baseline: size, entry count and the FNV-1a hash of the sorted edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub name: String,
    pub n: usize,
    pub nvals: usize,
    pub fnv1a: u64,
}

pub fn fingerprint(name: impl Into<String>, g: &EdgeList) -> Fingerprint {
    let mut edges = g.edges.clone();
    edges.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (u, v) in edges {
        for b in (u as u64)
            .to_le_bytes()
            .into_iter()
            .chain((v as u64).to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Fingerprint {
        name: name.into(),
        n: g.n,
        nvals: g.edges.len(),
        fnv1a: h,
    }
}

impl Fingerprint {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("n", self.n)
            .with("nvals", self.nvals)
            .with("fnv1a", format!("{:016x}", self.fnv1a))
    }
}

/// The full-scale graphs of seed 42, as `(name, n, nvals, fnv1a)`.
const SEED_42: &[(&str, usize, usize, u64)] = &[
    ("bc_batch.g0", 4096, 28723, 0xf2582cdadb8707ff),
    ("bc_batch.g1", 4096, 28727, 0xa370cfc951f19178),
    ("bc_batch.g2", 4096, 28690, 0xe7ec21fc61920742),
    ("bc_batch.g3", 4096, 28612, 0x4088307c23456d41),
    ("traverse.g", 65536, 494134, 0xd50ffb5b2e2c0e32),
    ("analytics.pr", 16384, 119908, 0x1c87e9b4b69d01cd),
    ("analytics.cc0", 32768, 467892, 0x04539e62bdc068cd),
    ("analytics.cc1", 32768, 467816, 0xebad0659e7aa3259),
    ("analytics.tc0", 2048, 25524, 0x1258fd2b521df1d9),
    ("analytics.tc1", 2048, 25626, 0x73dec0f748fc1751),
    ("analytics.tc2", 2048, 25432, 0xc1cfa6e12dd34331),
    ("capi_mix.fig2_a0", 512, 3157, 0x9ed1cfc819b09bc3),
    ("capi_mix.fig2_b0", 512, 3177, 0x5966905c5b7cf1ed),
    ("capi_mix.fig2_a1", 512, 3206, 0xfd7cff54c13d73e2),
    ("capi_mix.fig2_b1", 512, 3168, 0x3e0d7edcfdc04074),
    ("capi_mix.fig2_a2", 512, 3175, 0xc34e4b6c0224064a),
    ("capi_mix.fig2_b2", 512, 3179, 0xae5a656e79a099b9),
    ("capi_mix.mxv", 2048, 13842, 0x4a3f780da96537c2),
    ("ingest_query.g", 16384, 120017, 0xeb0b9042c05dab6c),
    ("server_mix.g0", 4096, 28608, 0x3ca6117b391c21aa),
    ("server_mix.g1", 4096, 28620, 0x5711b570930a511d),
    ("server_mix.g2", 4096, 28562, 0x36bf45aa7cbf2276),
    ("server_mix.g3", 4096, 28711, 0xe50eae70f03ab770),
];

/// For the default seed at full scale, a graph that differs from the recorded
/// one is an error message; other seeds and `--quick` have nothing to match.
pub fn check_fingerprint(seed: u64, quick: bool, fp: &Fingerprint) -> Result<(), String> {
    if seed != 42 || quick {
        return Ok(());
    }
    match SEED_42.iter().find(|e| e.0 == fp.name) {
        Some(&(_, n, nvals, fnv1a)) if (n, nvals, fnv1a) == (fp.n, fp.nvals, fp.fnv1a) => Ok(()),
        Some(e) => Err(format!(
            "graph {} changed: expected {e:?}, generated {fp:?}",
            fp.name
        )),
        None => Err(format!("graph {} has no recorded fingerprint", fp.name)),
    }
}

/// `count` distinct seeded vertices that have at least one out-edge, so no
/// operation degenerates into a traversal that never leaves its source.
pub fn pick_sources(g: &EdgeList, count: usize, rng: &mut Rng) -> Vec<usize> {
    let deg = g.out_degrees();
    let live = deg.iter().filter(|&&d| d > 0).count();
    let count = count.min(live);
    let mut taken = vec![false; g.n];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(g.n);
        if deg[v] > 0 && !taken[v] {
            taken[v] = true;
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (rmat_graph(8, 7, 1), rmat_graph(8, 7, 1));
        assert_eq!(fingerprint("g", &a), fingerprint("g", &b));
        assert_ne!(
            fingerprint("g", &a).fnv1a,
            fingerprint("g", &rmat_graph(8, 8, 1)).fnv1a
        );
        let s1 = pick_sources(&a, 16, &mut Rng::new(7, 2));
        let s2 = pick_sources(&a, 16, &mut Rng::new(7, 2));
        assert_eq!(s1, s2);
        let deg = a.out_degrees();
        assert!(s1.iter().all(|&v| deg[v] > 0));
        let mut d = s1.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s1.len());
    }
}
