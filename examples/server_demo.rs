//! The multi-tenant query service end to end: start a server on an
//! ephemeral port, connect two tenants over TCP, build a graph, fire
//! concurrent BFS, apply point updates through the delta log, and read
//! the `STATS` report. Every reply is checked: the BFS levels against a
//! queue-walk BFS over the same edge list, the hop list and the tenant
//! counters against what the demo sent.
//!
//! Run with: `cargo run --release --example server_demo`

use std::collections::VecDeque;

use server::{Client, Reply, Request, Server, Service, ServiceConfig};

const NODES: usize = 10;

/// Reference BFS levels over an edge list (`-1` = unreachable).
fn queue_walk(edges: &[(usize, usize)], src: usize) -> Vec<i64> {
    let mut levels = vec![-1; NODES];
    levels[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &(_, v) in edges.iter().filter(|&&(a, _)| a == u) {
            if levels[v] < 0 {
                levels[v] = levels[u] + 1;
                queue.push_back(v);
            }
        }
    }
    levels
}

fn bfs(client: &mut Client, src: usize) -> Vec<i64> {
    let request = Request::Bfs {
        graph: "roads".into(),
        src,
    };
    match client.call(&request).unwrap() {
        Reply::Levels(levels) => levels,
        other => panic!("bfs from {src} failed: {other:?}"),
    }
}

fn main() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_cap: 32,
        ..Default::default()
    });
    let tcp = Server::bind("127.0.0.1:0", svc.clone()).expect("bind ephemeral port");
    println!("serving on {}", tcp.addr());

    // Tenant "alice" (weight 4) builds a small road network: two
    // chains out of vertex 0.
    let mut alice = Client::connect(tcp.addr(), "alice", 4).expect("connect alice");
    let create = Request::CreateGraph {
        graph: "roads".into(),
        nodes: NODES,
        tiles: Some((2, 2)),
    };
    assert_eq!(alice.call(&create).unwrap(), Reply::Ok);
    let mut edges = vec![
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (0, 6),
        (6, 7),
        (7, 8),
        (8, 9),
    ];
    for &(u, v) in &edges {
        let add = Request::AddEdge {
            graph: "roads".into(),
            u,
            v,
        };
        assert_eq!(alice.call(&add).unwrap(), Reply::Ok);
    }
    println!("alice built 'roads' ({NODES} nodes, {} edges)", edges.len());

    // Tenant "bob" (weight 1) queries the same shared graph.
    let mut bob = Client::connect(tcp.addr(), "bob", 1).expect("connect bob");
    let hop = bob
        .call(&Request::OneHop {
            graph: "roads".into(),
            v: 0,
        })
        .unwrap();
    assert_eq!(hop, Reply::Ids(vec![1, 6]));
    println!("bob: neighbors of 0 -> {hop:?}");

    // Concurrent BFS from eight sources, one connection each; every
    // request is its own job on the executors.
    let handles: Vec<_> = (0..8)
        .map(|src| {
            let addr = tcp.addr();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, "bob", 1).expect("connect");
                (src, bfs(&mut c, src))
            })
        })
        .collect();
    for h in handles {
        let (src, levels) = h.join().unwrap();
        assert_eq!(levels, queue_walk(&edges, src), "bfs from {src}");
        println!("bfs from {src}: {levels:?}");
    }

    // Point updates go through the pending-update delta log: O(1)
    // amortized, merged at the next completion-forcing read.
    let add = Request::AddEdge {
        graph: "roads".into(),
        u: 5,
        v: 0,
    };
    let remove = Request::RemoveEdge {
        graph: "roads".into(),
        u: 0,
        v: 6,
    };
    assert_eq!(alice.call(&add).unwrap(), Reply::Ok);
    assert_eq!(alice.call(&remove).unwrap(), Reply::Ok);
    edges.push((5, 0));
    edges.retain(|&e| e != (0, 6));
    let levels = bfs(&mut alice, 0);
    assert_eq!(levels, queue_walk(&edges, 0));
    assert_eq!(&levels[6..], &[-1; 4], "6..=9 are cut off from 0");
    println!("after updates, bfs from 0: {levels:?} (6..=9 now unreachable)");

    // The STATS report: global counters plus per-tenant latency
    // quantiles from the lock-free histograms. alice sent HELLO, CREATE,
    // 11 edge updates, one BFS and this STATS (which is not yet counted
    // complete); bob sent nine HELLOs, one HOP and eight BFS.
    let Reply::Stats(report) = alice.call(&Request::Stats).unwrap() else {
        panic!("STATS must answer with a report");
    };
    println!("--- STATS ---\n{report}");
    for want in [
        "tenant alice weight=4 submitted=15 completed=14 shed=0 errors=0 ",
        "tenant bob weight=1 submitted=18 completed=18 shed=0 errors=0 ",
    ] {
        assert!(
            report.lines().any(|l| l.starts_with(want)),
            "no line starting {want:?} in:\n{report}"
        );
    }

    tcp.shutdown();
    svc.shutdown();
}
