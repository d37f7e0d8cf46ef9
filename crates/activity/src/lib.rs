//! Instruction-level activity model for gated clock routing.
//!
//! The paper derives the on/off behaviour of every clock-gate enable signal
//! from *instruction statistics* rather than from expensive clock-by-clock
//! RTL simulation (§3):
//!
//! 1. An **RTL description** ([`Rtl`]) says which modules every instruction
//!    uses (Table 1 of the paper).
//! 2. An **instruction stream** ([`InstructionStream`]) comes from
//!    instruction-level simulation; here it is produced by a synthetic
//!    [`CpuModel`] with controllable instruction mix and temporal
//!    persistence.
//! 3. One scan of the stream builds two tables:
//!    * the **Instruction Frequency Table** ([`Ift`], Table 2) — `P(I_k)`;
//!    * the **Instruction-Transition Module-Activation Table**
//!      ([`Itmatt`], Table 3) — probabilities of consecutive instruction
//!      pairs, from which 2-bit activation tags `AT(M_j)` follow.
//! 4. For any module set S (the sinks under a clock-tree node), the
//!    **signal probability** `P(EN) = P(⋃ M_i active)` and the **transition
//!    probability** `P_tr(EN)` are computed from the tables *without
//!    rescanning the stream* ([`EnableStats`]).
//!
//! Both the table-driven computation and the brute-force stream scan are
//! implemented; they agree exactly (same denominators: B cycles for signal
//! probabilities, B−1 consecutive pairs for transition probabilities), and
//! the test-suite cross-checks them on random streams.
//!
//! # Streaming at production scale
//!
//! Multi-million-cycle traces need not be materialized: any
//! [`TraceSource`] (an in-memory [`SliceSource`], an incremental
//! [`ModelTraceSource`], a text-file [`io::TextTraceSource`]) streams
//! through [`scan_source`] — a chunked, parallel, single-pass count
//! pipeline whose result is **bit-identical** to the two-pass reference
//! ([`Ift::scan`] + [`Itmatt::scan`]) at every thread count and chunk
//! size (integer counts merge exactly; the f64 normalization happens
//! once). It is the only scan front end: [`ActivityTables::scan`] is
//! the same pipeline over an in-memory stream at one thread, counted in
//! place without a copy, and the two-pass reference survives only as the
//! test oracle. See `docs/algorithms.md` for the row-sum, chunk-stitch
//! and exact-merge argument.
//!
//! # Example
//!
//! The paper's worked example: four instructions over six modules, with
//! `P(M1) = 0.75` and `P(EN) = P(M5 ∨ M6) = 0.55` for its 20-cycle stream.
//!
//! ```
//! use gcr_activity::{ActivityTables, InstructionStream, ModuleSet, Rtl};
//!
//! let rtl = Rtl::builder(6)
//!     .instruction("I1", [0, 1, 2, 4])? // M1, M2, M3, M5
//!     .instruction("I2", [0, 3])?       // M1, M4
//!     .instruction("I3", [1, 4, 5])?    // M2, M5, M6
//!     .instruction("I4", [2, 3])?       // M3, M4
//!     .build()?;
//! let stream = InstructionStream::from_indices(
//!     &rtl,
//!     [0, 1, 3, 0, 2, 1, 0, 0, 1, 0, 2, 0, 1, 2, 0, 0, 1, 1, 3, 1],
//! )?;
//! let tables = ActivityTables::scan(&rtl, &stream);
//!
//! let m1 = ModuleSet::with_modules(6, [0]);
//! assert!((tables.enable_stats(&m1).signal - 0.75).abs() < 1e-12);
//! let m56 = ModuleSet::with_modules(6, [4, 5]);
//! assert!((tables.enable_stats(&m56).signal - 0.55).abs() < 1e-12);
//! # Ok::<(), gcr_activity::ActivityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
pub mod io;
mod model;
mod moduleset;
mod rtl;
mod source;
mod stats;
mod stream;
mod tables;

pub use builder::{scan_source, ScanParams, ScanProfile, ScanScratch, DEFAULT_CHUNK_CYCLES};
pub use error::ActivityError;
/// Re-export of the workspace's one allocation probe, so binaries that
/// install it through this crate keep working.
pub use gcr_trace::set_alloc_probe;
pub use model::{CpuModel, CpuModelBuilder, ModelTraceSource};
pub use moduleset::{set_bits, ModuleSet};
pub use rtl::{paper_example_rtl, InstructionId, Rtl, RtlBuilder};
pub use source::{SliceSource, TraceSource};
pub use stats::StreamStats;
pub use stream::InstructionStream;
pub use tables::{ActivityTables, EnableStats, Ift, Itmatt};
