//! Admission control and fairness under load.
//!
//! These tests run the real service (executor threads, stride
//! scheduler, engine) in-process. A backlog is built by pausing the
//! executors ([`Service::pause`]), not by racing slow work against a
//! sleep, and timing assertions use generous absolute bounds — the
//! *structural* claims (who got shed, who completed) are the point.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use server::{Reply, Request, Service, ServiceConfig};

/// Bulk-load a graph through the registry (the documented bulk path),
/// bypassing the request queue so setup does not perturb the stats the
/// tests assert on.
fn bulk_graph(
    svc: &Service,
    name: &str,
    nodes: usize,
    edges: impl Iterator<Item = (usize, usize)>,
) {
    svc.graphs().create(name, nodes, None).unwrap();
    let g = svc.graphs().get(name).unwrap();
    for (u, v) in edges {
        g.matrix.set(u, v, true).unwrap();
    }
}

fn chain_edges(nodes: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..nodes - 1).map(|u| (u, u + 1))
}

/// Poll until `done` holds; fails after a minute instead of hanging.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A flooding tenant overruns its bounded queue and gets typed
/// `OVERLOADED` replies, while a light tenant sharing the service is
/// never shed, completes everything, and sees bounded latency.
#[test]
fn flooder_sheds_light_tenant_survives() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_cap: 4,
        ..Default::default()
    });
    bulk_graph(&svc, "g", 32, chain_edges(32));
    let admitted = || svc.stats().admitted.load(Ordering::Relaxed);

    // Hold the single executor so the flood backs up.
    svc.pause();

    // Flood: 16 concurrent submitters against a queue capped at 4.
    let flooders: Vec<_> = (0..16)
        .map(|_| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                svc.submit(
                    "flood",
                    Request::Degree {
                        graph: "g".into(),
                        v: 0,
                    },
                )
            })
        })
        .collect();
    // Nothing drains, so exactly 4 queue and the other 12 return shed.
    wait_until("the flood to queue or shed", || {
        admitted() == 4 && flooders.iter().filter(|h| h.is_finished()).count() == 12
    });

    // Light tenant submits a handful of cheap queries during the storm.
    let light = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            let mut replies = Vec::new();
            for _ in 0..4 {
                replies.push(svc.submit(
                    "light",
                    Request::HasEdge {
                        graph: "g".into(),
                        u: 0,
                        v: 1,
                    },
                ));
            }
            replies
        })
    };
    // its first query queues behind the backlog before the executor resumes
    wait_until("the light tenant to queue", || admitted() == 5);
    svc.resume();

    let flood_replies: Vec<Reply> = flooders.into_iter().map(|h| h.join().unwrap()).collect();
    let light_replies = light.join().unwrap();

    let shed = flood_replies
        .iter()
        .filter(|r| **r == Reply::Overloaded)
        .count();
    assert_eq!(
        shed, 12,
        "everything past queue_cap sheds: {flood_replies:?}"
    );
    assert!(
        flood_replies
            .iter()
            .all(|r| matches!(r, Reply::Overloaded | Reply::Count(1))),
        "flood got wrong replies: {flood_replies:?}"
    );
    assert!(
        light_replies.iter().all(|r| *r == Reply::Bool(true)),
        "light tenant got wrong replies: {light_replies:?}"
    );

    let tenants = svc.tenants();
    let light_t = tenants.iter().find(|t| t.name == "light").unwrap();
    let (submitted, completed, shed_count, errors) = light_t.counters.snapshot();
    assert_eq!(submitted, 4);
    assert_eq!(completed, 4);
    assert_eq!(shed_count, 0, "light tenant must never be shed");
    assert_eq!(errors, 0);
    // Generous absolute bound: the light tenant waits at most for the
    // pause plus a fair share of the backlog.
    assert!(
        light_t.latency.quantile(0.99) < Duration::from_secs(60).as_nanos() as u64,
        "light tenant p99 unbounded"
    );

    let flood_t = tenants.iter().find(|t| t.name == "flood").unwrap();
    let (_, _, flood_shed, _) = flood_t.counters.snapshot();
    assert_eq!(flood_shed as usize, shed, "shed counter must match replies");

    svc.shutdown();
}

/// The `STATS` report prints tenant latencies in milliseconds with one
/// decimal place. The old report integer-divided nanosecond quantiles,
/// so every sub-unit latency printed as a flat `0` — this pins the
/// fixed-point format (`p50_ms=0.8`, not `p50_us=0`) for each quantile
/// key, on real sub-millisecond requests.
#[test]
fn stats_reports_fractional_millisecond_latencies() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_cap: 8,
        ..Default::default()
    });
    bulk_graph(&svc, "g", 8, chain_edges(8));
    for _ in 0..8 {
        // HasEdge completes in well under a millisecond: exactly the
        // latency range the truncating formatter erased.
        assert_eq!(
            svc.submit(
                "probe",
                Request::HasEdge {
                    graph: "g".into(),
                    u: 0,
                    v: 1,
                },
            ),
            Reply::Bool(true)
        );
    }
    let Reply::Stats(report) = svc.submit("probe", Request::Stats) else {
        panic!("STATS must answer with a report");
    };
    let line = report
        .lines()
        .find(|l| l.starts_with("tenant probe "))
        .unwrap_or_else(|| panic!("no tenant line in report:\n{report}"));
    for key in ["p50_ms=", "p99_ms=", "p999_ms=", "max_ms="] {
        let field = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key))
            .unwrap_or_else(|| panic!("missing {key} in line: {line}"));
        // Fixed-point with exactly one decimal: digits '.' digit.
        let (int, frac) = field
            .split_once('.')
            .unwrap_or_else(|| panic!("{key}{field} is not fixed-point"));
        assert!(
            !int.is_empty() && int.chars().all(|c| c.is_ascii_digit()),
            "{key}{field} has a malformed integer part"
        );
        assert!(
            frac.len() == 1 && frac.chars().all(|c| c.is_ascii_digit()),
            "{key}{field} must carry exactly one decimal"
        );
    }
    // The quantiles themselves must be sane: sub-millisecond probes
    // cannot round up to minutes.
    let p50: f64 = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("p50_ms="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(p50 < 60_000.0, "p50 {p50}ms is implausible for HasEdge");
    svc.shutdown();
}

/// Weighted fairness end to end: under sustained contention, a
/// weight-4 tenant completes more work than a weight-1 tenant on the
/// same service; the stride scheduler alone decides the service order.
#[test]
fn weighted_tenant_gets_more_service() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_cap: 8,
        ..Default::default()
    });
    bulk_graph(&svc, "g", 64, chain_edges(64));
    svc.submit(
        "heavy",
        Request::Hello {
            tenant: "heavy".into(),
            weight: 4,
        },
    );
    svc.submit(
        "lite",
        Request::Hello {
            tenant: "lite".into(),
            weight: 1,
        },
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let spin = |tenant: &'static str| {
        let svc = svc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut done = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if svc.submit(
                    tenant,
                    Request::Pagerank {
                        graph: "g".into(),
                        iters: 5,
                    },
                ) != Reply::Overloaded
                {
                    done += 1;
                }
            }
            done
        })
    };
    // Two submitters per tenant keep both queues non-empty, so the
    // scheduler is always choosing between them.
    let hs: Vec<_> = vec![spin("heavy"), spin("heavy"), spin("lite"), spin("lite")];
    std::thread::sleep(Duration::from_millis(1500));
    stop.store(true, Ordering::Relaxed);
    let counts: Vec<u64> = hs.into_iter().map(|h| h.join().unwrap()).collect();
    let heavy = counts[0] + counts[1];
    let lite = counts[2] + counts[3];
    assert!(
        heavy > lite,
        "weight-4 tenant should outpace weight-1: heavy={heavy} lite={lite}"
    );
    svc.shutdown();
}
