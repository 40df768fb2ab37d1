//! The `grb-serve` binary: bind a TCP address and serve graph queries.
//!
//! ```text
//! grb-serve [ADDR] [--workers N] [--queue-cap N]
//! ```
//!
//! `ADDR` defaults to `127.0.0.1:7687`. The process serves until
//! killed.

use std::process::ExitCode;
use std::sync::mpsc;

use server::{Server, Service, ServiceConfig};

fn usage() -> ! {
    eprintln!("usage: grb-serve [ADDR] [--workers N] [--queue-cap N]");
    std::process::exit(2)
}

fn parse_args() -> (String, ServiceConfig) {
    let mut addr = "127.0.0.1:7687".to_string();
    let mut cfg = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    let mut positional = 0usize;
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a positive integer");
                usage()
            })
        };
        match arg.as_str() {
            "--workers" => cfg.workers = num("--workers").max(1),
            "--queue-cap" => cfg.queue_cap = num("--queue-cap").max(1),
            "--help" | "-h" => usage(),
            a if a.starts_with('-') => usage(),
            a => {
                if positional > 0 {
                    usage();
                }
                positional += 1;
                addr = a.to_string();
            }
        }
    }
    (addr, cfg)
}

fn main() -> ExitCode {
    let (addr, cfg) = parse_args();
    let service = Service::start(cfg);
    let server = match Server::bind(&addr, service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("grb-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "grb-serve: listening on {} (workers={}, queue_cap={})",
        server.addr(),
        cfg.workers,
        cfg.queue_cap
    );
    // serve forever: park the main thread on a channel nobody sends to
    let (_tx, rx) = mpsc::channel::<()>();
    let _ = rx.recv();
    ExitCode::SUCCESS
}
