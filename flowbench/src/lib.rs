//! `flow_bench`: one end-to-end benchmark for the gated clock routing
//! flows, with per-layer attribution.
//!
//! Each workload drives a real user path from outside the library:
//! batch routing through every layer's public entry point in the order
//! `gcr route` calls them, trace import, and the `gcrd` daemon over TCP.
//! A run measures for a fixed wall-clock window, checks every output
//! against an independent reference outside the timed windows, and
//! prints one JSON result line. See `README.md` for the workloads, the
//! metrics and how each layer metric is expected to move the end-to-end
//! ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cli;
pub mod daemon;
pub mod harness;
mod rng;
pub mod spans;
