//! `gcrd` — the long-running gated-clock-routing daemon.
//!
//! Everything below `gcrd` in this workspace is batch: generate a
//! design, route it, evaluate it, exit. This crate turns that pipeline
//! into a service. A daemon process binds a TCP port and serves
//! `route` / `evaluate` / `verify` / `eco` requests for many designs
//! concurrently over a newline-delimited JSON protocol
//! ([`protocol`]), with:
//!
//! - **One keyed cache** ([`cache`]): one entry per design key, under
//!   the FNV-1a hash of its canonical key, holds the parsed design
//!   (generated benchmark and scanned activity tables) together with
//!   its completed routing. Each key is routed once: concurrent
//!   requests for it wait for the one fill and are hits. A hit is a
//!   pure replay, answered on the connection thread without a worker —
//!   the response (decision-log digest included) is byte-identical to
//!   the miss that populated it, and bit-identical to a single-shot CLI
//!   run of the same design.
//! - **Per-worker reusable scratch** ([`engine::WorkerScratch`]): each
//!   worker owns the engine arenas, so a warm worker's flat merge loop
//!   performs zero heap allocations, daemon or no daemon.
//! - **Bounded queue with backpressure** ([`service`]): only engine
//!   work (misses, forced routes, ECOs) is queued; a full queue answers
//!   it `rejected` with a `retry_after_ms` hint instead of blocking;
//!   requests may carry a queue deadline.
//! - **Incremental ECO**: `eco` requests against a cached design take
//!   the dirty-frontier path ([`gcr_core::route_gated_eco`])
//!   — the 21–39× shortcut over re-routing from scratch.
//! - **Graceful shutdown**: `shutdown` drains queued and in-flight work,
//!   answers everything, then stops.
//! - **Observability**: every request emits a `gcrd.request` complete
//!   span (with `gcrd.parse` / `gcrd.cache` / `gcrd.route` /
//!   `gcrd.respond` phases) and the `gcrd.{hits,misses,rejected,
//!   inflight,completed,panics}` counters through [`gcr_trace`].
//!
//! The engine thread count is resolved **once** at startup
//! ([`gcr_trace::threads::resolve`]) and pinned through explicit params
//! on every engine call — the daemon never re-reads `GCR_THREADS` per
//! request.
//!
//! Binaries: `gcrd` (the daemon), `gcrd-client` (batch driver: send a
//! `.jsonl` file, print responses), `gcrd-smoke` (the CI smoke gate:
//! concurrent clients, bit-identity against a single-shot reference,
//! backpressure, clean shutdown).

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod service;

pub use engine::{DesignKey, WorkerScratch};
pub use protocol::{Command, Request, Response, MAX_LINE_BYTES, MAX_STREAM_LEN};
pub use service::{Service, ServiceConfig};
