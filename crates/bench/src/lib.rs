//! The benchmark binaries (`greedy_bench`, `activity_bench`,
//! `bench_diff`, `trace_check`); the library itself holds no code.

#![forbid(unsafe_code)]

/// Re-export of [`gcr_trace::json`]. It exists only because the
/// `flowbench/` benchmark imports `gcr_bench::json`, and `flowbench/`
/// changes only together with the benchmark definition; new code uses
/// `gcr_trace::json`.
pub use gcr_trace::json;
