//! Property-based bit-identity of the streaming/parallel scan.
//!
//! The contract under test: [`scan_source`] over any [`TraceSource`], at
//! any thread count in {1, 2, 4, 8} and any chunk size — including chunk
//! boundaries that split consecutive pairs and lane-flush boundaries —
//! produces `ActivityTables` **bit-identical** (f64 `==`, not epsilon) to
//! the independent two-pass reference, [`Ift::scan`] + [`Itmatt::scan`].
//! Same for [`ActivityTables::scan`] and for the text round-trip through
//! [`TextTraceSource`].
// Test code: unwrap on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used)]

use gcr_activity::io::{format_trace, TextTraceSource};
use gcr_activity::{
    scan_source, ActivityTables, CpuModel, Ift, InstructionStream, Itmatt, ScanParams, ScanScratch,
    SliceSource,
};
use proptest::prelude::*;

/// Instruction counts: the lane path (1, 2, 32), the single dense table
/// (65) and the sparse table (1 025, one past the 1 024-instruction dense
/// limit).
const KS: [usize; 5] = [1, 2, 32, 65, 1_025];

/// Chunk sizes around the 64 Ki default and the 64 Ki-pair lane flush.
const CHUNKS: [usize; 5] = [1, 2, 3, 65_535, 65_537];

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The two-pass reference tables of `stream`.
fn reference(model: &CpuModel, stream: &InstructionStream) -> (Ift, Itmatt) {
    (
        Ift::scan(model.rtl(), stream),
        Itmatt::scan(model.rtl(), stream),
    )
}

fn assert_bit_identical(got: &ActivityTables, oracle: &(Ift, Itmatt)) -> Result<(), TestCaseError> {
    // PartialEq on Ift/Itmatt compares every f64 (dense matrix and sparse
    // view) with `==` — exact bit-identity for non-NaN probabilities.
    prop_assert_eq!(got.ift(), &oracle.0);
    prop_assert_eq!(got.itmatt(), &oracle.1);
    Ok(())
}

fn model(modules: usize, k: usize, persistence: f64, seed: u64) -> CpuModel {
    CpuModel::builder(modules)
        .instructions(k)
        .persistence(persistence)
        .seed(seed)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The counting kernel against the two-pass reference, through every
    /// entry point: the borrowed slice path, the copying generator path
    /// and `ActivityTables::scan`.
    #[test]
    fn scan_source_bit_identical_across_threads_and_chunks(
        seed in 0u64..1_000,
        k_idx in 0usize..5,
        chunk_idx in 0usize..5,
        threads_idx in 0usize..4,
        persistence in prop_oneof![Just(0.99), 0.0..0.95f64],
        len in prop_oneof![Just(2usize), 2usize..3_000, 65_000usize..140_000],
    ) {
        let (k, chunk_cycles, threads) = (KS[k_idx], CHUNKS[chunk_idx], THREADS[threads_idx]);
        let model = model(48, k, persistence, seed);
        let stream = model.generate_stream(len);
        let oracle = reference(&model, &stream);
        let params = ScanParams {
            threads: Some(threads),
            chunk_cycles,
        };
        let mut scratch = ScanScratch::new();
        // Borrowed path: counted in place.
        let mut source = SliceSource::new(&stream);
        let (tables, profile) =
            scan_source(model.rtl(), &mut source, &params, &mut scratch).unwrap();
        assert_bit_identical(&tables, &oracle)?;
        prop_assert_eq!(profile.cycles, len as u64);
        prop_assert_eq!(profile.chunks, len.div_ceil(chunk_cycles) as u64);
        prop_assert_eq!(profile.threads, threads);
        // Copying path: the generator never materializes the trace, and
        // reuses the (now differently shaped) scratch.
        let mut gen_source = model.trace_source(len as u64);
        let (gen_tables, _) =
            scan_source(model.rtl(), &mut gen_source, &params, &mut scratch).unwrap();
        assert_bit_identical(&gen_tables, &oracle)?;
        // The public one-call scan is the same pipeline at one thread.
        assert_bit_identical(&ActivityTables::scan(model.rtl(), &stream), &oracle)?;
    }

    /// Text traces: format → stream through TextTraceSource → scan must
    /// equal the reference tables of the parsed stream.
    #[test]
    fn text_source_scan_bit_identical(
        seed in 0u64..200,
        len in 2usize..400,
        chunk_cycles in 1usize..64,
    ) {
        let model = model(12, 6, 0.75, seed);
        let stream = model.generate_stream(len);
        let oracle = reference(&model, &stream);
        let text = format_trace(model.rtl(), &stream);
        let mut source = TextTraceSource::new(model.rtl(), text.as_bytes());
        let params = ScanParams {
            threads: Some(2),
            chunk_cycles,
        };
        let mut scratch = ScanScratch::new();
        let (tables, _) = scan_source(model.rtl(), &mut source, &params, &mut scratch).unwrap();
        assert_bit_identical(&tables, &oracle)?;
    }
}

/// `GCR_THREADS` is honored (and sanitized) when `ScanParams::threads`
/// is `None`. Runs outside the proptest block because it mutates process
/// environment; single test body so the env var cannot race a sibling.
#[test]
fn gcr_threads_env_resolution() {
    let model = model(16, 8, 0.75, 3);
    let stream = model.generate_stream(1_000);
    let oracle = Itmatt::scan(model.rtl(), &stream);
    let mut scratch = ScanScratch::new();
    for (value, expect) in [("3", 3usize), ("0", 1), ("99", 16), ("not-a-number", 1)] {
        std::env::set_var("GCR_THREADS", value);
        let mut source = SliceSource::new(&stream);
        let (tables, profile) = scan_source(
            model.rtl(),
            &mut source,
            &ScanParams::default(),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(profile.threads, expect, "GCR_THREADS={value}");
        assert_eq!(tables.itmatt(), &oracle);
    }
    std::env::remove_var("GCR_THREADS");
}
