//! Experiment E10: the query service under multi-tenant load.
//!
//! A custom harness (not criterion — the unit of measurement is a
//! whole service under sustained concurrent load, not a closure):
//! driver threads simulate ~1000 clients issuing a ~70/30 read/write
//! mix (BFS, one-hop, degree, point reads / point writes) against a
//! handful of shared R-MAT graphs. Reported: end-to-end latency
//! quantiles (p50/p99/p999), throughput and shed rate.
//!
//! Environment knobs: `GRB_SERVER_SECS` (default 3),
//! `GRB_SERVER_DRIVERS` (default 32), `GRB_SERVER_CLIENTS` (default
//! 1024).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphblas_gen::{rmat, RmatParams};
use server::stats::Histogram;
use server::{Reply, Request, Service, ServiceConfig};

const GRAPHS: usize = 4;
const SCALE: u32 = 10; // 1024 vertices per graph

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Small deterministic PRNG so every run issues the same request mix.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn main() {
    let secs = env_usize("GRB_SERVER_SECS", 3);
    let drivers = env_usize("GRB_SERVER_DRIVERS", 32);
    let clients = env_usize("GRB_SERVER_CLIENTS", 1024);

    let svc = Service::start(ServiceConfig {
        workers: 4,
        queue_cap: 64,
        ..Default::default()
    });

    // Shared graphs, bulk-loaded through the registry.
    let mut nodes = Vec::new();
    for gi in 0..GRAPHS {
        let g = rmat(SCALE, 8, RmatParams::default(), 100 + gi as u64)
            .dedup()
            .without_self_loops();
        let name = format!("g{gi}");
        svc.graphs().create(&name, g.n, None).unwrap();
        let entry = svc.graphs().get(&name).unwrap();
        for &(u, v) in &g.edges {
            entry.matrix.set(u, v, true).unwrap();
        }
        nodes.push(g.n);
    }

    let latency = Arc::new(Histogram::new());
    let completed = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let start = Instant::now();
    let handles: Vec<_> = (0..drivers)
        .map(|d| {
            let svc = svc.clone();
            let latency = latency.clone();
            let completed = completed.clone();
            let shed = shed.clone();
            let errors = errors.clone();
            let stop = stop.clone();
            let nodes = nodes.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(0xc0ffee + d as u64);
                // each driver round-robins a disjoint slice of clients
                let per = clients.div_ceil(drivers);
                let mut turn = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let client = d * per + (turn % per);
                    turn += 1;
                    let tenant = format!("c{client}");
                    let gi = (rng.next() as usize) % GRAPHS;
                    let graph = format!("g{gi}");
                    let n = nodes[gi];
                    let v = (rng.next() as usize) % n;
                    let u = (rng.next() as usize) % n;
                    // ~70/30 read/write mix; reads are BFS-heavy
                    let req = match rng.next() % 10 {
                        0..=3 => Request::Bfs { graph, src: v },
                        4 => Request::OneHop { graph, v },
                        5 => Request::Degree { graph, v },
                        6 => Request::HasEdge { graph, u, v },
                        7..=8 => Request::AddEdge { graph, u, v },
                        _ => Request::RemoveEdge { graph, u, v },
                    };
                    let t0 = Instant::now();
                    match svc.submit(&tenant, req) {
                        Reply::Overloaded => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Reply::Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            latency.record(t0.elapsed().as_nanos() as u64);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(secs as u64));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let completed = completed.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    let total = completed + shed + errors;

    println!("server_load: {clients} clients on {drivers} drivers, {GRAPHS} rmat graphs (scale {SCALE}), {elapsed:.1}s");
    println!(
        "  requests: total={total} completed={completed} shed={shed} errors={errors} shed_rate={:.2}%",
        100.0 * shed as f64 / total.max(1) as f64
    );
    println!("  throughput: {:.0} req/s", completed as f64 / elapsed);
    println!(
        "  latency_us: p50={} p99={} p999={} max={}",
        latency.quantile(0.5) / 1_000,
        latency.quantile(0.99) / 1_000,
        latency.quantile(0.999) / 1_000,
        latency.max() / 1_000,
    );
    svc.shutdown();

    assert!(total > 0, "no requests completed");

    overload_phase();
}

/// A second, shorter scenario that drives the admission controller into
/// shedding: few tenants, many concurrent submitters each, tiny
/// per-tenant queues — so the shed path is exercised, not just present.
fn overload_phase() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_cap: 2,
        ..Default::default()
    });
    let g = rmat(SCALE, 8, RmatParams::default(), 7)
        .dedup()
        .without_self_loops();
    svc.graphs().create("g", g.n, None).unwrap();
    let entry = svc.graphs().get("g").unwrap();
    for &(u, v) in &g.edges {
        entry.matrix.set(u, v, true).unwrap();
    }
    let n = g.n;

    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..32)
        .map(|d| {
            let svc = svc.clone();
            let stop = stop.clone();
            let completed = completed.clone();
            let shed = shed.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(0xdead + d as u64);
                let tenant = format!("t{}", d % 8); // 4 submitters per tenant
                while !stop.load(Ordering::Relaxed) {
                    let src = (rng.next() as usize) % n;
                    match svc.submit(
                        &tenant,
                        Request::Bfs {
                            graph: "g".into(),
                            src,
                        },
                    ) {
                        Reply::Overloaded => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let completed = completed.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    println!("overload (8 tenants x 4 submitters, queue_cap=2):");
    println!(
        "  completed={completed} shed={shed} shed_rate={:.2}%",
        100.0 * shed as f64 / (completed + shed).max(1) as f64
    );
    svc.shutdown();
}
