//! A multi-tenant graph query service built on the GraphBLAS engine.
//!
//! Many tenants connect over a framed TCP protocol, name graphs, and
//! issue queries (BFS, one-hop, PageRank, degree, point reads and
//! updates). The service answers them with small GraphBLAS programs on
//! a shared blocking [`graphblas_core::Context`], so heavy kernels fan
//! out onto the engine's shared worker pool exactly like library use.
//!
//! What makes it a *service* rather than a socket wrapper:
//!
//! - **Admission control** ([`sched`]): per-tenant bounded queues shed
//!   excess load with a typed `OVERLOADED` reply instead of unbounded
//!   queueing.
//! - **Weighted fairness** ([`sched`]): stride scheduling picks the
//!   next tenant by smallest pass value, so a weight-4 tenant gets 4×
//!   the service of a weight-1 tenant under contention — and a flooding
//!   tenant cannot starve a light one.
//! - **O(1) point updates** ([`graphs`]): `EDGE+`/`EDGE-` append to the
//!   matrix's pending-update delta log and merge lazily at the next
//!   completion-forcing read.
//! - **Observability** ([`stats`]): per-tenant log-linear latency
//!   histograms (p50/p99/p999 with ~3% relative error) and service-wide
//!   counters, reported via the `STATS` request.

pub mod graphs;
pub mod net;
pub mod protocol;
pub mod sched;
pub mod service;
pub mod stats;

pub(crate) mod engine;

pub use net::{Client, Server};
pub use protocol::{Reply, Request};
pub use service::{Service, ServiceConfig};
