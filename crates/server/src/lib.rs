//! `vdbench serve` — a concurrent campaign service over the
//! content-addressed blob store.
//!
//! The batch pipeline (`vdbench campaign`) and this service share one source of
//! truth: the disk blob store introduced with the persistent cache. The
//! service is a **stateless compute tier** in front of it — a std-TCP
//! HTTP/1.1 subset ([`http`]) that canonicalizes each JSON request into
//! the cache key space ([`request`]), serves warm blobs straight off the
//! disk tier, and schedules cold misses through admission control,
//! per-client step budgets and single-flight deduplication ([`service`]).
//! Kill the process mid-load and restart it: every previously committed
//! response is still served warm, because commitment *is* the atomic
//! blob publication, not server memory.
//!
//! [`loadgen`] is the paired load generator (`vdbench loadgen`): a
//! fixed-seed mixed request pool driven over persistent connections,
//! measuring client-side percentiles and reading the server's tier
//! counters back over `GET /v1/stats` into `BENCH_serve.json`.
//!
//! See DESIGN.md §15, "Service architecture".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod loadgen;
pub mod request;
pub mod server;
pub mod service;

pub use http::{HttpRequest, HttpResponse};
pub use loadgen::LoadgenConfig;
pub use request::{tool_by_name, ApiRequest, ScanSummary, TOOL_NAMES};
pub use server::{start, ServerConfig, ServerHandle};
pub use service::{Service, ServiceConfig, StatsResponse, WARM_COST_STEPS};
pub use vdbench_bench::serve_record::{SeedPassRecord, ServeRecord};
