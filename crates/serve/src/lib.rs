//! # serve
//!
//! Simulation-as-a-service: a long-running run server that accepts
//! concurrent simulation requests — `(implementation × grid × steps ×
//! machine × fault seed × trace/metrics flags)` — over a line-delimited
//! JSON protocol on TCP ([`tcp`]) and through an in-process API
//! ([`Server`]) so tests need no socket.
//!
//! The pipeline a request flows through:
//!
//! 1. **Validate + canonicalize** ([`overlap::RunParams::canonicalize`])
//!    into a [`overlap::RunKey`] — knobs the chosen implementation never
//!    reads are zeroed so they cannot split the cache.
//! 2. **Cache lookup** ([`cache::LruCache`]): runs are pure functions of
//!    their key, so a hit returns the stored artifact without touching
//!    the worker pool.
//! 3. **In-flight dedup**: a request whose key is already queued or
//!    running joins that execution's waiter list instead of enqueueing a
//!    second copy.
//! 4. **Fair scheduling** ([`server`]): a bounded queue feeding a fixed
//!    worker pool, drained round-robin across tenant ids with a fixed
//!    per-tenant running cap, so one tenant's flood cannot starve the
//!    others.
//! 5. **Artifact render**: the final state's checksum plus comm/GPU
//!    counters, optional Prometheus metrics text, and an optional Chrome
//!    trace, rendered once per execution so every waiter — and every
//!    later cache hit — receives byte-identical bytes.
//!
//! The server exports its own health through the same `obs::registry`
//! machinery the simulations use: `serve_requests_total`,
//! `serve_cache_hits_total`, `serve_queue_depth`,
//! `serve_request_latency_ns`, `serve_queue_wait_ms` and friends,
//! rendered by [`Server::metrics_text`] / [`Server::metrics_json`].
//!
//! Service-layer observability (this crate's counterpart of the
//! per-run tracing stack):
//!
//! * [`reqtrace`] — every submission gets a request id and a lifecycle
//!   span chain on a dedicated service track, stitched to the executed
//!   run's own trace in one Chrome/Perfetto export.
//! * An always-on **flight recorder** (`obs::recorder` rings inside the
//!   server) that dumps a self-contained JSON bundle on two anomalies:
//!   deadline misses and straggler flags.
//! * [`log`] — leveled JSON-lines events in a bounded ring, queryable
//!   over the wire via `{"cmd":"events"}` alongside `{"cmd":"health"}`
//!   and `{"cmd":"dump"}`.

pub mod artifact;
pub mod cache;
pub mod log;
pub mod protocol;
pub mod reqtrace;
pub mod server;
pub mod tcp;

pub use log::{Level, Log};
pub use protocol::{Command, Request};
pub use reqtrace::{Anomaly, ReqEvent, RequestId, Stage};
pub use server::{Response, ServeError, Server, ServerConfig, ServerStats, Ticket};
